"""Executable soundness checkers over machine traces.

Each theorem of the calculus is realized as a checker that inspects concrete
configurations: heap compatibility, type preservation, progress, per-step
borrow safety, end-of-run uniqueness, and soundness of the equational laws.
All permission arithmetic is exact; there are no tolerances anywhere.

Preservation replays the typing judgment of `typecheck` on runtime
configurations: `runtime_ctx` reads a heap as a typing context, and one
`_MemoChecker` per trace keeps the judgments of binding forms that
consecutive configurations share.
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
    Abs, Amp, App, ExistsT, FloatLit, FloatT, Join, LetPair, NatLit, Pack, Pair, Permission, Prim, RefVal, Split,
    Term, Type, Uniq, Var, WithBorrow,
)
from .machine import ArrRes, Config, Frame, Heap, Machine, EvalError, RefCell, Trace, plug, shared_frame
from .typecheck import (
    MISMATCH, Checker, CheckError, Ctx, GradedEntry, RefEntry, Usage, check_program, ctx_add, ctx_scale,
    transparent_child,
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


def runtime_ctx(heap: Heap, ring: Semiring) -> Ctx:
    """The typing context of a heap: a graded entry for each variable that
    records its type, and a reference entry for each reference to a live
    resource. Every identifier counts as in scope."""
    refs = {}
    for ref, cell in heap.refs.items():
        res = heap.resources.get(cell.ident)
        if res is not None:
            refs[ref] = RefEntry("Array", cell.ident, FloatT()) if res.is_array else RefEntry("Ref", cell.ident, res.ty)
    vars_ = {x: GradedEntry(cell.ty, cell.grade) for x, cell in heap.vars.items() if cell.ty is not None}
    return Ctx(ring, vars_, frozenset(heap.resources), refs, lenient_names=True)


def heap_compat(
    heap: Heap, ctx: Ctx, ring: Semiring, rt: Optional[Ctx] = None, checker: Optional[Checker] = None
) -> CompatJudgment:
    """Decide whether the heap can account for the context's demands.

    The derivation peels variable bindings from the right, accumulating the
    demands of stored values (scaled by the use made of the variable), then
    discharges reference entries and garbage-collects leftover resources.
    Variables the context never mentions are discharged without a typing
    premise, and leftover references are collectable only at permission 0.

    Stored values are typed by `checker` in `rt`, the heap's runtime
    context; both are built here when not given.
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
            ty, usage, _ = checker.synth(rt, cell.value)
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

    The usage comes from the graded substitution lemma (see `Checker`): if
    Γ, z :[A]_r ⊢ C[z] : B and Δ ⊢ t : A, then Γ + r·Δ ⊢ C[t] : B. Each frame
    is judged once (`_judge`), as `(expected, A, U, r)`: its hole's type A,
    checked against when `expected` is A and inferred when it is None, and
    the usage U and grade r of the context around the hole; the root, the
    frame None, as `(B, B, ∅, 1)`. A configuration's usage is U + r·U(hole).
    A judgment reads the types of variables and references, which a heap
    variable keeps from its binding on. A step that changes one drops every
    judgment, and that configuration is checked in full, as is one whose
    hole's type is not A, whose judgment cannot be built, or whose U names a
    variable or reference that the heap no longer holds.
    """
    out: list[Violation] = []
    checker = _MemoChecker(ring)
    root = (main_type, main_type, Usage(), ring.one)
    judged: dict[Optional[Frame], tuple] = {None: root}
    rt = None
    for k, config in enumerate(trace.configs):
        previous, rt = rt, runtime_ctx(config.heap, ring)
        if previous is not None and _retyped(previous, rt):
            judged = {None: root}
            usage = None
        else:
            usage = _root_usage(checker, judged, config, rt)
        if usage is None:
            try:
                _, usage, _ = checker.synth(rt, config.term(), main_type)
            except CheckError as e:
                out.append(Violation("preservation", k, f"re-inference failed: [{e.kind}] {e.msg}"))
                continue
        judgment = heap_compat(config.heap, _demand_ctx(rt, usage, s), ring, rt, checker)
        if not judgment.accepted:
            out.append(Violation("preservation", k, f"heap compatibility failed: {judgment.failure}"))
    return out


def _retyped(old: Ctx, new: Ctx) -> bool:
    """Whether a variable or reference that both runtime contexts hold has
    another type in `new`."""
    return any(x in new.vars and new.vars[x].ty != e.ty for x, e in old.vars.items()) or any(
        r in new.refs and new.refs[r] != e for r, e in old.refs.items()
    )


def _cut(frame: Optional[Frame], t: Term) -> tuple[Optional[Frame], Term]:
    """The innermost frame, from `frame` up, whose node's rule reads its hole
    through one `synth` call (`transparent_child`), or None, the
    root; and the term in its hole: t plugged into the frames below it."""
    while frame is not None and not transparent_child(node := frame.plug(t), frame.hole):
        t, frame = node, frame.parent
    return frame, t


def _root_usage(checker: Checker, judged: dict, config: Config, rt: Ctx) -> Optional[Usage]:
    """The usage of `config`'s term, from its hole and the judgment of the
    frame above it (`_cut`), judged here if it has none; None when the term
    must be checked in full."""
    frame, hole = _cut(config.frame, config.hole)
    try:
        inferred = _judge(checker, judged, frame, hole, rt) if frame not in judged else None
        expected, ty, used, r = judged[frame]
        if not (used.refs <= rt.refs.keys() and used.graded.keys() | used.linear <= rt.vars.keys()):
            return None  # the context reads a name that left the heap
        if expected is None and inferred is not None:
            hole_ty, hole_used, _ = inferred
        else:
            hole_ty, hole_used, _ = checker.synth(rt, hole, expected)
        return ctx_add(used, ctx_scale(r, hole_used)) if hole_ty == ty else None
    except CheckError:
        return None


def _judge(checker: Checker, judged: dict, frame: Frame, hole: Term, rt: Ctx) -> Optional[tuple]:
    """Judge `frame`, with `hole` in its hole, and the frames above it that
    have none, top down, in `rt`. The node between a frame's hole and the
    hole of the frame above, with a fresh z in its own hole, is typed as the
    judgment above says that hole is; z has the type its rule checks it
    against, or else the one the term in the hole infers (`_HoleTypes`).
    Returns `hole`'s inference when judging made one, else None."""
    z = Var(S.fresh_name("z", rt.vars))
    frames, nodes = [], []
    while frame not in judged:
        frames.append(frame)
        frame, node = _cut(frame.parent, frame.plug(z))
        nodes.append(node)
    hole_types = _HoleTypes(checker, rt, z, hole, nodes)
    expected, ty, used, r = judged[frame]
    for i in reversed(range(len(nodes))):
        node_ty, node_used, read = hole_types.type_node(i, expected)
        if node_ty != ty:
            raise CheckError(MISMATCH, f"the node has type {node_ty!r}, its context expects {ty!r}")
        used = ctx_add(used, ctx_scale(r, node_used.without(z.name)))
        r = grade_mul(r, node_used.graded[z.name])
        expected, ty = read, read if read is not None else hole_types(i)
        judged[frames[i]] = (expected, ty, used, r)
    return hole_types.inferred[0] if hole_types.inferred else None


class _HoleTypes:
    """The type that the term in the hole of each of `_judge`'s frames
    infers, found bottom up, from `hole`, when first asked for. `inferred`
    keeps, bottom up, the hole's inference and then each node's, with z of
    the type below, or None where one fails."""

    def __init__(self, checker: Checker, rt: Ctx, z: Var, hole: Term, nodes: list[Term]):
        self.checker, self.rt, self.z, self.hole, self.nodes = checker, rt, z, hole, nodes
        self.inferred: list[Optional[tuple]] = []

    def __call__(self, i: int) -> Type:
        while (j := len(self.inferred)) <= i:
            try:
                self.inferred.append(self.type_node(j - 1, None) if j else self.checker.synth(self.rt, self.hole))
            except CheckError:
                self.inferred.append(None)
        if self.inferred[i] is None:
            raise CheckError(MISMATCH, "the term in the hole has no type")
        return self.inferred[i][0]

    def type_node(self, i: int, expected: Optional[Type]) -> tuple[Type, Usage, Optional[Type]]:
        """The i-th node typed against `expected`, or inferred when None (from
        `inferred` if there): its type, usage and `_HoleProbe.read`."""
        if expected is None and i + 1 < len(self.inferred):
            self(i + 1)  # raises where that inference failed
            return self.inferred[i + 1]
        probe = _HoleProbe(self, i)
        ty, used, _ = probe.synth(self.rt, self.nodes[i], expected)
        return ty, used, probe.read


class _HoleProbe(Checker):
    """A checker for the i-th node of `types`, with their variable z in its
    hole. Its `synth` keeps the type that the node's rule checks z against
    in `read`; where the rule infers z instead, z has the type `types(i)` and
    `read` stays None. Subterms without z go to the trace's checker, so only
    the path down to the hole is typed here."""

    def __init__(self, types: _HoleTypes, i: int):
        super().__init__(types.checker.ring)
        self.checker, self.z, self.types, self.i, self.read = types.checker, types.z, types, i, None

    def synth(self, ctx: Ctx, t: Term, expected: Optional[Type] = None) -> tuple[Type, Usage, Term]:
        if t is self.z:
            self.read = expected
            ty = self.types(self.i) if expected is None else expected
            return ty, Usage(graded={t.name: self.ring.one}), t
        if self.z.name in S.free_vars(t):
            return super().synth(ctx, t, expected)
        return self.checker.synth(ctx, t, expected)


class _MemoChecker(Checker):
    """A checker for one trace that keeps the judgments of the binding forms
    (let, unpack, clone and withBorrow nodes), which consecutive
    configurations share until a step rebuilds them.

    A judgment is keyed on its node (by identity), the expected type (None
    when inferring) and the part of the context the node can read: the
    entries of its free variables and references, in the order of the sets
    `free_vars` and `refs_of` store on it, the permission variables, and the
    names in scope unless identifiers are lenient. Entries compare up to
    alpha-equivalence. A node with a binder that clashes with the context has
    no key, since checking it renames that binder, and failures are never
    stored. Stored judgments hold their nodes, so no node's id is reused
    while the checker lives. A hit returns the stored result itself, which
    callers must not mutate; its elaborated term fits the context it was
    computed in, so callers discard it.

    A node that a step has just rebuilt has a new id and no hit:
    `check_preservation` types each of those once per frame, with a fresh
    variable in its hole (`_judge`).
    """

    def __init__(self, ring: Semiring):
        super().__init__(ring)
        self.judgments: dict[tuple, tuple[Term, tuple]] = {}

    def _recalled(self, ctx: Ctx, t: Term, expected: Optional[Type], rule) -> tuple[Type, Usage, Term]:
        bound = S.bound_names(t)
        if not (bound.isdisjoint(ctx.vars) and bound.isdisjoint(ctx.names)):
            return rule(self, ctx, t, expected)
        vars_, refs = ctx.vars, ctx.refs
        key = (
            id(t),
            expected,
            tuple([vars_.get(x) for x in S.free_vars(t)]),
            tuple([refs.get(r) for r in S.refs_of(t)]),
            ctx.perm_vars,
            True if ctx.lenient_names else ctx.names,
        )
        if (hit := self.judgments.get(key)) is not None:
            return hit[1]
        out = rule(self, ctx, t, expected)
        self.judgments[key] = (t, out)
        return out


def check_progress(trace: Trace) -> list[Violation]:
    """On a completed trace, progress amounts to ending in a value."""
    if not S.is_value(trace.final_term):
        return [Violation("progress", trace.step_count, f"run ended on a non-value: {trace.final_term!r}")]
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
    """The permission total of each resource that `reachable` touches. Totals
    are compared with the ints 0 and 1, which `Fraction` compares exactly."""
    sums: dict[str, Fraction] = {}
    for ref in reachable:
        cell = heap.refs.get(ref)
        if cell is None:
            continue
        total = sums.get(cell.ident)
        sums[cell.ident] = cell.perm if total is None else total + cell.perm
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
        if pre.get(ident, 0) == 1:
            after = post.get(ident, 0)
            if after != 0 and after != 1:
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
        total = post.get(ident)
        if total is not None and total != 1:
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
    cls = type(t)
    if cls is S.Var:
        cell = heap.vars.get(t.name)
        return t if cell is None else close_value(heap, cell.value, depth + 1)
    changes = {}
    for n in S._SHAPES[cls].terms:
        old = getattr(t, n)
        new = close_value(heap, old, depth)
        if new is not old:
            changes[n] = new
    return S._rebuild(t, **changes) if changes else t


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
