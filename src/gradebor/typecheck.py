"""Usage-synthesizing typechecker.

Checking is bidirectional, through one method, `Checker.synth`: it
synthesizes a type when given no expected type and pushes the expected type
inward when given one. It returns the type, the exact per-variable usage,
which binder rules compare against declared grades, and an elaborated copy of
the term in which binder annotations and box grades have been filled in (the
machine needs those to run). Top-level definitions other than main must be
closed values and are inlined into use sites during elaboration. A
polymorphic one is instantiated where it is applied or given to withBorrow,
and may be used nowhere else.

Each construct has one rule body, called with the expected type or None:
`Checker._abs` (also for beta-redexes and borrowing functions), `_promote`,
`_pack`, and the binding forms' methods, found in `_BINDING_RULES`.
Promotion is decided by the body's type: a box may not hold a `*` value
outside a function type, wherever the allocation is hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import grades as G
from .grades import Grade, Permission, Semiring, STAR, WHOLE, grade_add, grade_leq, grade_mul
from . import syntax as S
from .syntax import (
    Abs, Amp, App, Box, Clone, ExistsT, FloatLit, FloatT, Forall, Fun, Join,
    LetBox, LetPair, LetUnit, Loc, NatLit, NatT, Pack, Pair, Prim, Prod,
    Promote, Pull, Push, RefVal, ResT, Share, Split, Term, Type, Unborrow,
    Uniq, UnitT, UnitVal, Unpack, Var, WithBorrow,
    free_vars, type_alpha_eq, type_free_names, type_free_perm_vars,
    type_subst_names,
)

# TypeError kinds; every rejection names the violated rule via CheckError.rule.
LINEAR_REUSE = "LinearReuse"
LINEAR_UNUSED = "LinearUnused"
LINEAR_UNDER_PROMOTION = "LinearUnderPromotion"
GRADE_EXCEEDED = "GradeExceeded"
INSTANCE_MISMATCH = "InstanceMismatch"
PROMOTION_OF_ALLOCATOR = "PromotionOfAllocator"
PERMISSION_NOT_WRITABLE = "PermissionNotWritable"
STAR_NOT_DIVISIBLE = "StarNotDivisible"
PERMISSION_OVERFLOW = "PermissionOverflow"
ID_ESCAPES = "IdEscapes"
MISMATCH = "Mismatch"
UNBOUND_VARIABLE = "UnboundVariable"
STAR_NOT_ADDABLE = "StarNotAddable"


class CheckError(Exception):
    def __init__(self, kind: str, msg: str, loc: Optional[Loc] = None, rule: str = ""):
        self.kind = kind
        self.msg = msg
        self.loc = loc
        self.rule = rule or kind
        super().__init__(self.render("<input>"))

    def render(self, path: str) -> str:
        where = f"{path}:{self.loc}: " if self.loc else f"{path}: "
        return f"{where}[{self.kind}] {self.msg}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "rule": self.rule,
            "message": self.msg,
            "line": self.loc.line if self.loc else None,
            "col": self.loc.col if self.loc else None,
        }


# ---------------------------------------------------------------------------
# Contexts and usage


@dataclass(frozen=True)
class LinearEntry:
    ty: Type


@dataclass(frozen=True)
class GradedEntry:
    ty: Type
    grade: Grade


@dataclass(frozen=True)
class RefEntry:
    kind: str  # Array | Ref
    ident: str
    payload: Type


@dataclass
class Ctx:
    """A typing context: term variables, name identifiers, runtime references."""

    ring: Semiring
    vars: dict[str, Union[LinearEntry, GradedEntry]] = field(default_factory=dict)
    names: frozenset = frozenset()
    refs: dict[str, RefEntry] = field(default_factory=dict)
    perm_vars: frozenset = frozenset()
    name_vars: frozenset = frozenset()
    lenient_names: bool = False  # runtime contexts treat identifiers as global

    def bind(self, name: str, entry) -> "Ctx":
        if name in self.vars:
            raise CheckError(MISMATCH, f"variable {name!r} bound twice", rule="context")
        return Ctx(
            self.ring, {**self.vars, name: entry}, self.names, self.refs,
            self.perm_vars, self.name_vars, self.lenient_names,
        )

    def bind_name(self, ident: str) -> "Ctx":
        return Ctx(
            self.ring, self.vars, self.names | {ident}, self.refs,
            self.perm_vars, self.name_vars, self.lenient_names,
        )

    def has_name(self, ident: str) -> bool:
        return self.lenient_names or ident in self.names or ident in self.name_vars


def _discardable(ty: Type) -> bool:
    # a numeric binder may go unused; every use is still linear
    return isinstance(ty, (NatT, FloatT))


def _owned(ty: Type) -> bool:
    """Whether ty is `* t`; a permission variable is never `*`."""
    return isinstance(ty, Amp) and isinstance(ty.perm, Permission) and ty.perm.is_star


def _holds_owned(ty: Type) -> bool:
    """Whether ty holds a `*` value outside a function type."""
    if _owned(ty):
        return True
    if type(ty) is Fun:
        return False
    return any(_holds_owned(getattr(ty, n)) for n in S._TYPE_CHILDREN[type(ty)])


def _whole(ty: Type) -> bool:
    """Whether ty is `& 1 t`; a permission variable is never `1`."""
    return isinstance(ty, Amp) and isinstance(ty.perm, Permission) and ty.perm == WHOLE


@dataclass
class Usage:
    """Per-variable synthesized usage plus the runtime references used."""

    linear: set[str] = field(default_factory=set)
    graded: dict[str, Grade] = field(default_factory=dict)
    refs: set[str] = field(default_factory=set)

    def without(self, *names: str) -> "Usage":
        return Usage(
            self.linear - set(names),
            {k: v for k, v in self.graded.items() if k not in names},
            set(self.refs),
        )


def ctx_add(u1: Usage, u2: Usage, loc: Optional[Loc] = None) -> Usage:
    if reused := u1.linear & u2.linear:
        raise CheckError(LINEAR_REUSE, f"linear variable {min(reused)!r} used more than once", loc, rule="context-add")
    graded = dict(u1.graded)
    for x, g in u2.graded.items():
        graded[x] = grade_add(graded[x], g) if x in graded else g
    return Usage(u1.linear | u2.linear, graded, u1.refs | u2.refs)


def ctx_scale(r: Grade, u: Usage, loc: Optional[Loc] = None) -> Usage:
    if u.linear:
        raise CheckError(
            LINEAR_UNDER_PROMOTION,
            f"cannot scale a context with linear assumptions ({', '.join(sorted(u.linear))})",
            loc,
            rule="promotion",
        )
    graded = {x: grade_mul(r, g) for x, g in u.graded.items()}
    return Usage(set(), graded, set(u.refs))


# ---------------------------------------------------------------------------
# Type utilities


def _arg_type_fits(actual: Type, expected: Type) -> bool:
    """Structural equality, with grade approximation at a top-level box."""
    if isinstance(actual, Box) and isinstance(expected, Box):
        try:
            return grade_leq(actual.grade, expected.grade) and type_alpha_eq(actual.body, expected.body)
        except G.InstanceMismatch:
            return False
    return type_alpha_eq(actual, expected)


def unify(pattern: Type, concrete: Type, bindable: set[str], sol: dict) -> bool:
    """One-way matching: whether `concrete` is an instance of `pattern` once
    the quantified variables `bindable` are solved, each solution recorded in
    `sol`. This is the matcher behind `==` on types (`type_alpha_eq`) with
    the signature's binders bindable, so the two agree on every pair of
    types, and a solution is never an identifier that an `exists` binds."""
    return type_alpha_eq(pattern, concrete, bindable, sol)


def instance(tf: Forall, ef: Term, sol: dict) -> tuple[Type, Term]:
    """The body of `tf` and its elaborated term `ef`, with each binder that
    `sol` solves replaced by its solution: one substitution pass over the
    type and one over the term, renaming Name binders and replacing
    permission variables together."""
    names = {v: sol[v] for v, k in tf.binders if k == "Name" and v in sol}
    perms = {v: sol[v] for v, k in tf.binders if k == "Permission" and v in sol}
    return type_subst_names(tf.body, names, perms), S.subst_names(ef, names, perms)


# ---------------------------------------------------------------------------
# Typing memo


class TypingMemo:
    """Typing judgments of subterms that recur unchanged, such as the parts of
    a term that consecutive configurations of a trace share.

    A judgment is keyed on its node (by identity), the expected type given
    to `Checker.synth` (None when inferring) and the part of the context it
    can read: the entries of the node's free variables and names, the
    entries of its references, the permission and name variables, and the
    names in scope unless identifiers are lenient. The entries follow the
    order of the sets `free_vars` and `refs_of` store on the node, so a
    node's key always lists them in the same order. Types and entries compare up to alpha-equivalence, as
    everywhere in the checker. A node with a binder that clashes with the
    context has no key, because checking it renames that binder. Entries hold
    their nodes, so no other node can take a node's id while the memo lives.
    Every hit returns the same stored result, so callers must not mutate it.

    A memo hit is keyed on one node, so it cannot help a node that a step
    has just rebuilt: `metatheory.check_preservation` types each of those
    once per frame, with a fresh variable in its hole (see `Checker`).
    """

    def __init__(self) -> None:
        self.judgments: dict[tuple, tuple[Term, tuple]] = {}

    def key(self, ctx: Ctx, t: Term, expected: Optional[Type]) -> Optional[tuple]:
        bound = S.bound_names(t)
        if not (bound.isdisjoint(ctx.vars) and bound.isdisjoint(ctx.names) and bound.isdisjoint(ctx.name_vars)):
            return None
        vars_, refs = ctx.vars, ctx.refs
        return (
            id(t),
            expected,
            tuple([vars_.get(x) for x in free_vars(t)]),
            tuple([refs.get(r) for r in S.refs_of(t)]),
            ctx.perm_vars,
            ctx.name_vars,
            True if ctx.lenient_names else ctx.names,
        )


# ---------------------------------------------------------------------------
# The checker


@dataclass
class GlobalDef:
    signature: Type
    body: Term  # elaborated


class Checker:
    """Bidirectional checking with usage synthesis.

    Every rule adds and scales its children's usages, so the graded
    substitution lemma holds (Orchard, Liepelt & Eades, "Quantitative program
    reasoning with graded modal types", ICFP 2019; Atkey, "Syntax and
    semantics of quantitative type theory", LICS 2018): if Γ, z :[A]_r ⊢
    C[z] : B and Δ ⊢ t : A, then Γ + r·Δ ⊢ C[t] : B, where C reads z as it
    would read t, through one `synth` call (`transparent_child`).

    With a `TypingMemo`, judgments on let, unpack, clone and withBorrow nodes,
    and on terms passed to `infer_shared`, are looked up before they are
    computed. Failures are never stored. A stored judgment may come from a
    computation that renamed an inner binder, so its elaborated term fits the
    context it was computed in; every user of a memo discards the elaborated
    term.
    """

    def __init__(
        self, ring: Semiring, globals_: Optional[dict[str, GlobalDef]] = None, memo: Optional[TypingMemo] = None
    ):
        self.ring = ring
        self.globals = globals_ or {}
        self.memo = memo

    # Binders that shadow an in-scope variable (or identifier) are renamed on
    # the fly, so contexts never bind a name twice; the elaborated term keeps
    # the fresh names, which avoid the context and every name of the bodies.

    def _freshen_var(self, x: str, ctx: Ctx, *bodies: Term) -> tuple[str, tuple[Term, ...]]:
        if x not in ctx.vars:
            return x, bodies
        x2 = S.fresh_name(x, set(ctx.vars).union(*map(S.names_in, bodies)))
        return x2, tuple(S.subst(b, x, Var(x2)) for b in bodies)

    def _freshen_name(self, i: str, ctx: Ctx, *bodies: Term) -> tuple[str, tuple[Term, ...]]:
        if i not in ctx.names and i not in ctx.name_vars:
            return i, bodies
        i2 = S.fresh_name(i, set(ctx.names).union(ctx.name_vars, *map(S.names_in, bodies)))
        return i2, tuple(S.subst_names(b, {i: i2}) for b in bodies)

    def _recalled(self, ctx: Ctx, t: Term, expected: Optional[Type], rule) -> tuple[Type, Usage, Term]:
        """`rule(self, ctx, t, expected)`, looked up in the memo when there is one."""
        memo = self.memo
        if memo is None:
            return rule(self, ctx, t, expected)
        key = memo.key(ctx, t, expected)
        if key is not None and (hit := memo.judgments.get(key)) is not None:
            return hit[1]
        out = rule(self, ctx, t, expected)
        if key is not None:
            memo.judgments[key] = (t, out)
        return out

    # -- entry points --------------------------------------------------------

    def infer_shared(self, ctx: Ctx, t: Term) -> tuple[Type, Usage, Term]:
        """`synth` in infer mode, looked up in the memo first: for a term that
        recurs unchanged, such as a value stored in the heap."""
        return self._recalled(ctx, t, None, Checker.synth)

    def synth(self, ctx: Ctx, t: Term, expected: Optional[Type] = None) -> tuple[Type, Usage, Term]:
        """The type, usage and elaborated term of `t` in `ctx`. With `expected`
        given, `t` is checked against it and the type returned is `expected`;
        otherwise the type is inferred.

        A class whose rule reads `expected` has a case guarded on it before
        its other case. Every other case infers and falls through to the
        tail, which compares the inferred type with `expected`. The cases are
        tested in measured-frequency order (preservation on `props` meets
        Var, RefVal, Uniq and Pair most, then the literals, App, the binding
        forms, Join, Pull, Split and Abs). The order changes only speed: the
        term classes are disjoint, and a class's guarded case precedes its
        other one, so each term meets the same case in any order.
        """
        match t:
            case Var(n):
                entry = ctx.vars.get(n)
                if isinstance(entry, LinearEntry):
                    ty, u, e = entry.ty, Usage(linear={n}), t
                elif entry is not None:
                    ty, u, e = entry.ty, Usage(graded={n: self.ring.one}), t
                elif n in self.globals:
                    g = self.globals[n]
                    if type(g.signature) is Forall:
                        raise CheckError(MISMATCH, f"polymorphic definition {n!r} must be applied", t.loc, rule="var")
                    ty, u, e = g.signature, Usage(), g.body
                else:
                    raise CheckError(UNBOUND_VARIABLE, f"unbound variable {n!r}", t.loc, rule="var")
            case RefVal(r):
                if r not in ctx.refs:
                    raise CheckError(UNBOUND_VARIABLE, f"unknown reference {r!r}", t.loc, rule="ref")
                entry = ctx.refs[r]
                ty, u, e = ResT(entry.kind, entry.ident, entry.payload), Usage(refs={r}), t
            case Uniq(body, perm) if isinstance(expected, Amp):
                if perm != expected.perm:
                    raise CheckError(MISMATCH, f"wrapper permission {perm} does not match {expected.perm}", t.loc, rule="nec")
                _, ub, eb = self.synth(ctx, body, expected.body)
                return expected, ub, S._rebuild(t, body=eb)
            case Uniq(body, perm):
                tb, ub, eb = self.synth(ctx, body)
                ty, u, e = Amp(perm, tb), ub, S._rebuild(t, body=eb)
            case Pair(l, r) if isinstance(expected, Prod):
                _, ul, el = self.synth(ctx, l, expected.left)
                _, ur, er = self.synth(ctx, r, expected.right)
                return expected, ctx_add(ul, ur, t.loc), S._rebuild(t, left=el, right=er)
            case Pair(l, r):
                tl, ul, el = self.synth(ctx, l)
                tr, ur, er = self.synth(ctx, r)
                ty, u, e = Prod(tl, tr), ctx_add(ul, ur, t.loc), S._rebuild(t, left=el, right=er)
            case UnitVal():
                ty, u, e = UnitT(), Usage(), t
            case FloatLit():
                ty, u, e = FloatT(), Usage(), t
            case NatLit():
                ty, u, e = NatT(), Usage(), t
            case App():
                ty, u, e = self._app(ctx, t, expected)
            case _ if (rule := _BINDING_RULES.get(type(t))) is not None:
                ty, u, e = self._recalled(ctx, t, expected, rule)
                return ty if expected is None else expected, u, e
            case Join(body):
                tb, u, eb = self.synth(ctx, body)
                if not (isinstance(tb, Prod) and isinstance(tb.left, Amp) and isinstance(tb.right, Amp)):
                    raise CheckError(MISMATCH, f"join expects a pair of borrows, got {tb!r}", t.loc, rule="join")
                if not type_alpha_eq(tb.left.body, tb.right.body):
                    raise CheckError(
                        MISMATCH,
                        "join requires both borrows to reference the same value type",
                        t.loc,
                        rule="join",
                    )
                p, q = tb.left.perm, tb.right.perm
                if not (isinstance(p, Permission) and isinstance(q, Permission)):
                    raise CheckError(MISMATCH, "join is not defined at abstract permissions", t.loc, rule="join")
                try:
                    total = G.perm_add(p, q)
                except G.StarNotAddable as err:
                    raise CheckError(STAR_NOT_ADDABLE, str(err), t.loc, rule="join")
                except G.PermissionOverflow as err:
                    raise CheckError(PERMISSION_OVERFLOW, str(err), t.loc, rule="join")
                ty, e = Amp(total, tb.left.body), S._rebuild(t, body=eb)
            case Pull(body):
                tb, u, eb = self.synth(ctx, body)
                if not (isinstance(tb, Prod) and isinstance(tb.left, Amp) and isinstance(tb.right, Amp)):
                    raise CheckError(MISMATCH, f"pull expects a pair of borrows, got {tb!r}", t.loc, rule="pull")
                if tb.left.perm != tb.right.perm:
                    raise CheckError(
                        MISMATCH,
                        "pull requires both components at the same permission",
                        t.loc,
                        rule="pull",
                    )
                ty, e = Amp(tb.left.perm, Prod(tb.left.body, tb.right.body)), S._rebuild(t, body=eb)
            case Split(body):
                tb, u, eb = self.synth(ctx, body)
                if not isinstance(tb, Amp):
                    raise CheckError(MISMATCH, f"split expects a borrowed value, got {tb!r}", t.loc, rule="split")
                p = tb.perm
                if not isinstance(p, Permission) or p.is_star:
                    raise CheckError(
                        STAR_NOT_DIVISIBLE,
                        "split is defined only for fractional permissions",
                        t.loc,
                        rule="split",
                    )
                half = G.perm_half(p)
                ty, e = Prod(Amp(half, tb.body), Amp(half, tb.body)), S._rebuild(t, body=eb)
            case Abs(_, _, ann) if expected is not None:
                if not isinstance(expected, Fun):
                    raise CheckError(MISMATCH, f"function given non-function type {expected!r}", t.loc, rule="abs")
                if ann is not None and not type_alpha_eq(ann, expected.dom):
                    raise CheckError(MISMATCH, f"annotation {ann!r} conflicts with expected domain {expected.dom!r}", t.loc, rule="abs")
                _, u, e = self._abs(ctx, t, expected.dom, expected.cod, t.loc)
                return expected, u, e
            case Abs(_, _, ann):
                if ann is None:
                    raise CheckError(MISMATCH, "cannot infer the type of an unannotated function", t.loc, rule="abs")
                self._check_wf(ann, ctx, t.loc)
                tb, u, e = self._abs(ctx, t, ann, None, t.loc)
                ty = Fun(ann, tb)
            case Pack(i) if isinstance(expected, ExistsT):
                _, u, e = self._pack(ctx, t, type_subst_names(expected.body, {expected.binder: i}))
                return expected, u, e
            case Pack():
                ty, u, e = self._pack(ctx, t, None)
            case Push(body):
                tb, u, eb = self.synth(ctx, body)
                if not (isinstance(tb, Amp) and isinstance(tb.body, Prod)):
                    raise CheckError(MISMATCH, f"push expects a borrowed product, got {tb!r}", t.loc, rule="push")
                ty, e = Prod(Amp(tb.perm, tb.body.left), Amp(tb.perm, tb.body.right)), S._rebuild(t, body=eb)
            case Promote() if expected is not None:
                if not isinstance(expected, Box):
                    raise CheckError(MISMATCH, f"promotion given non-box type {expected!r}", t.loc, rule="promotion")
                _, u, e = self._promote(ctx, t, expected.grade, expected.body)
                return expected, u, e
            case Promote(_, grade):
                if grade is None:
                    raise CheckError(MISMATCH, "cannot infer the grade of a promotion; annotate the binding", t.loc, rule="promotion")
                # elaborated boxes record their grade, so runtime terms re-infer
                ty, u, e = self._promote(ctx, t, grade, None)
            case Unborrow(body) if expected is not None:
                if not _owned(expected):
                    raise CheckError(MISMATCH, f"unborrow produces an owned value, but {expected!r} was expected", t.loc, rule="unborrow")
                _, u, eb = self.synth(ctx, body, Amp(WHOLE, expected.body))
                return expected, u, S._rebuild(t, body=eb)
            case Unborrow(body):
                tb, u, eb = self.synth(ctx, body)
                if not _whole(tb):
                    raise CheckError(MISMATCH, f"unborrow expects a whole borrow, got {tb!r}", t.loc, rule="unborrow")
                ty, e = Amp(STAR, tb.body), S._rebuild(t, body=eb)
            case Share(body) if expected is not None:
                if not isinstance(expected, Box):
                    raise CheckError(MISMATCH, f"share produces a box, but {expected!r} was expected", t.loc, rule="share")
                _, u, eb = self.synth(ctx, body, Amp(STAR, expected.body))
                return expected, u, S._rebuild(t, body=eb, grade=expected.grade)
            case Share():
                raise CheckError(MISMATCH, "cannot infer the grade of share; annotate the use site", t.loc, rule="share")
            case Prim(name):
                if name != "newArray":
                    raise CheckError(MISMATCH, f"primitive {name} must be applied to its resource argument", t.loc, rule="prim")
                ty, u, e = self._prim_result_type("newArray", [], t.loc), Usage(), t
            case _:
                raise CheckError(MISMATCH, f"cannot infer a type for {t!r}", t.loc, rule="infer")
        if expected is None:
            return ty, u, e
        if not _arg_type_fits(ty, expected):
            rule = "app" if type(t) is App else "check"
            raise CheckError(MISMATCH, f"expected {expected!r} but found {ty!r}", t.loc, rule=rule)
        return expected, u, e

    # -- composite rules ------------------------------------------------------

    def _app(self, ctx: Ctx, t: App, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        spine = S.prim_spine(t)
        if spine is not None:
            return self._prim_app(ctx, t, spine, expected)
        fn, arg = t.fn, t.arg
        if isinstance(fn, Abs):
            # beta-redex: learn the argument type first
            if fn.ann is not None:
                self._check_wf(fn.ann, ctx, t.loc)
            ta, ua, ea = self.synth(ctx, arg, fn.ann)
            tb, ub, efn = self._abs(ctx, fn, ta, expected, t.loc)
            return tb, ctx_add(ub, ua, t.loc), S._rebuild(t, fn=efn, arg=ea)
        # a polymorphic global, instantiated at the argument's type
        g = self.globals.get(fn.name) if type(fn) is Var and fn.name not in ctx.vars else None
        if g is not None and type(g.signature) is Forall:
            ta, ua, ea = self.synth(ctx, arg)
            tf, ef = self._instantiate(g.signature, g.body, ta, expected, t.loc)
            if not _arg_type_fits(ta, tf.dom):
                raise CheckError(MISMATCH, f"argument type {ta!r} does not match domain {tf.dom!r}", t.loc, rule="app")
            return tf.cod, ua, S._rebuild(t, fn=ef, arg=ea)
        tf, uf, ef = self.synth(ctx, fn)
        if not isinstance(tf, Fun):
            raise CheckError(MISMATCH, f"applied a non-function of type {tf!r}", t.loc, rule="app")
        _, ua, ea = self.synth(ctx, arg, tf.dom)
        return tf.cod, ctx_add(uf, ua, t.loc), S._rebuild(t, fn=ef, arg=ea)

    def _instantiate(self, tf: Forall, ef: Term, arg_ty: Type, expected: Optional[Type], loc) -> tuple[Type, Term]:
        if not isinstance(tf.body, Fun):
            raise CheckError(MISMATCH, "quantified definition is not a function", loc, rule="app")
        bindable = {v for v, _ in tf.binders}
        sol: dict = {}
        if not unify(tf.body.dom, arg_ty, bindable, sol):
            raise CheckError(
                MISMATCH,
                f"cannot instantiate {tf!r} at argument type {arg_ty!r}",
                loc,
                rule="app",
            )
        if expected is not None and len(sol) < len(bindable):
            unify(tf.body.cod, expected, bindable, sol)
        missing = bindable - set(sol)
        if missing:
            raise CheckError(MISMATCH, f"cannot determine {', '.join(sorted(missing))} at this call site", loc, rule="app")
        return instance(tf, ef, sol)

    def _prim_app(self, ctx: Ctx, t: App, spine, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        name, args = spine
        arity = S.PRIMITIVES[name]
        if len(args) > arity:
            raise CheckError(MISMATCH, f"{name} applied to too many arguments", t.loc, rule=name)
        payload = None
        if name == "newRef" and isinstance(expected, ExistsT):
            # the expected existential fixes the payload type, so the stored
            # value (newRef's only argument) may be checked rather than inferred
            inner = expected.body
            if (
                _owned(inner)
                and isinstance(inner.body, ResT)
                and inner.body.kind == "Ref"
                and expected.binder not in type_free_names(inner.body.payload)
            ):
                payload = inner.body.payload
        usage = Usage()
        elabs: list[Term] = []
        tys: list[Type] = []
        for a in args:
            ta, ua, ea = self.synth(ctx, a, payload)
            usage = ctx_add(usage, ua, t.loc)
            elabs.append(ea)
            tys.append(ta)
        ty = self._prim_result_type(name, tys, t.loc)
        # rebuild the spine with elaborated arguments; a newRef head carries
        # its payload type, which the machine stores with the new cell
        out: Term = Prim(name, tys[0] if name == "newRef" else None, loc=t.loc)
        for ea in elabs:
            out = App(out, ea, loc=t.loc)
        return ty, usage, out

    def _prim_result_type(self, name: str, args: list[Type], loc) -> Type:
        """The type of `name` applied to arguments of types `args`: at most its
        arity, and at least one unless `name` is newArray."""
        if name not in S.PRIMITIVES:
            raise CheckError(MISMATCH, f"unknown primitive {name}", loc, rule="prim")
        n = len(args)
        if name == "newArray":
            if n >= 1 and not type_alpha_eq(args[0], NatT()):
                raise CheckError(MISMATCH, f"newArray expects a Nat size, got {args[0]!r}", loc, rule=name)
            result = ExistsT("id", Amp(STAR, ResT("Array", "id", FloatT())))
            return result if n == 1 else Fun(NatT(), result)
        if name == "newRef":
            return ExistsT("id", Amp(STAR, ResT("Ref", "id", args[0])))
        # the array and reference primitives take the resource first
        kind, what = ("Array", "an array reference") if name.endswith("Array") else ("Ref", "a Ref")
        ta = args[0]
        if not (isinstance(ta, Amp) and isinstance(ta.body, ResT) and ta.body.kind == kind):
            raise CheckError(MISMATCH, f"{name} expects {what}, got {ta!r}", loc, rule=name)
        p, res = ta.perm, ta.body
        if name in ("writeArray", "swapRef") and not (isinstance(p, Permission) and G.perm_is_writable(p)):
            verb = "writing" if name == "writeArray" else "swapping"
            raise CheckError(PERMISSION_NOT_WRITABLE, f"{verb} requires permission 1 or *, found {p}", loc, rule=name)
        if name == "readArray":
            if n >= 2 and not type_alpha_eq(args[1], NatT()):
                raise CheckError(MISMATCH, f"readArray index must be a Nat, got {args[1]!r}", loc, rule=name)
            result = Prod(FloatT(), Amp(p, res))
            return result if n == 2 else Fun(NatT(), result)
        if name == "writeArray":
            if n >= 2 and not type_alpha_eq(args[1], NatT()):
                raise CheckError(MISMATCH, f"writeArray index must be a Nat, got {args[1]!r}", loc, rule=name)
            if n >= 3 and not type_alpha_eq(args[2], FloatT()):
                raise CheckError(MISMATCH, f"writeArray value must be a Float, got {args[2]!r}", loc, rule=name)
            result = Amp(p, res)
            if n == 3:
                return result
            rest = Fun(FloatT(), result)
            return rest if n == 2 else Fun(NatT(), rest)
        if name == "deleteArray":
            if not _owned(ta):
                raise CheckError(MISMATCH, f"deleteArray consumes a uniquely owned array, found permission {p}", loc, rule=name)
            return UnitT()
        if name == "readRef":
            if not isinstance(res.payload, Box):
                raise CheckError(
                    MISMATCH,
                    f"readRef needs a graded payload to account for the extra use, got {res.payload!r}",
                    loc,
                    rule=name,
                )
            lowered = G.grade_minus_one(res.payload.grade)
            if lowered is None:
                raise CheckError(
                    GRADE_EXCEEDED,
                    f"readRef needs payload grade at least 1, found {res.payload.grade}",
                    loc,
                    rule=name,
                )
            return Prod(res.payload.body, Amp(p, ResT("Ref", res.ident, Box(lowered, res.payload.body))))
        if name == "swapRef":
            if n >= 2 and not type_alpha_eq(args[1], res.payload):
                raise CheckError(MISMATCH, f"swapRef value must have type {res.payload!r}, got {args[1]!r}", loc, rule=name)
            result = Prod(res.payload, Amp(p, res))
            return result if n == 2 else Fun(res.payload, result)
        # deleteRef
        if not _owned(ta):
            raise CheckError(MISMATCH, f"deleteRef consumes a uniquely owned reference, found permission {p}", loc, rule=name)
        return res.payload

    def _let_pair(self, ctx: Ctx, t: LetPair, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        tr, ur, er = self.synth(ctx, t.rhs)
        if not isinstance(tr, Prod):
            raise CheckError(MISMATCH, f"let (x, y) scrutinee has type {tr!r}, not a product", t.loc, rule="pair-elim")
        x, (body,) = self._freshen_var(t.left, ctx, t.body)
        ctx2 = ctx.bind(x, LinearEntry(tr.left))
        y, (body,) = self._freshen_var(t.right, ctx2, body)
        ctx2 = ctx2.bind(y, LinearEntry(tr.right))
        tb, ub, eb = self.synth(ctx2, body, expected)
        ub = self._pop_linear(ub, x, tr.left, t.loc)
        ub = self._pop_linear(ub, y, tr.right, t.loc)
        return tb, ctx_add(ur, ub, t.loc), S._rebuild(t, left=x, right=y, rhs=er, body=eb, lann=tr.left, rann=tr.right)

    def _let_unit(self, ctx: Ctx, t: LetUnit, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        tr, ur, er = self.synth(ctx, t.rhs, None if expected is None else UnitT())
        if not isinstance(tr, UnitT):
            raise CheckError(MISMATCH, f"let () scrutinee has type {tr!r}, not Unit", t.loc, rule="unit-elim")
        tb, ub, eb = self.synth(ctx, t.body, expected)
        return tb, ctx_add(ur, ub, t.loc), S._rebuild(t, rhs=er, body=eb)

    def _let_box(self, ctx: Ctx, t: LetBox, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        ann = t.ann
        if ann is not None:
            self._check_wf(ann, ctx, t.loc)
            if not isinstance(ann, Box):
                raise CheckError(MISMATCH, f"let [x] annotation {ann!r} is not a box type", t.loc, rule="box-elim")
        tr, ur, er = self.synth(ctx, t.rhs, ann)
        if not isinstance(tr, Box):
            raise CheckError(MISMATCH, f"let [x] scrutinee has type {tr!r}, not a box", t.loc, rule="box-elim")
        x, (body,) = self._freshen_var(t.binder, ctx, t.body)
        ctx2 = ctx.bind(x, GradedEntry(tr.body, tr.grade))
        tb, ub, eb = self.synth(ctx2, body, expected)
        ub = self._pop_graded(ub, x, tr.grade, t.loc)
        return tb, ctx_add(ur, ub, t.loc), S._rebuild(t, binder=x, rhs=er, body=eb, ann=tr)

    def _unpack(self, ctx: Ctx, t: Unpack, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        tr, ur, er = self.synth(ctx, t.rhs)
        if not isinstance(tr, ExistsT):
            raise CheckError(MISMATCH, f"unpack scrutinee has type {tr!r}, not an existential", t.loc, rule="unpack")
        ident, (body,) = self._freshen_name(t.ident, ctx, t.body)
        binder, (body,) = self._freshen_var(t.binder, ctx, body)
        payload = type_subst_names(tr.body, {tr.binder: ident})
        ctx2 = ctx.bind_name(ident).bind(binder, LinearEntry(payload))
        tb, ub, eb = self.synth(ctx2, body, expected)
        if ident in type_free_names(tb):
            raise CheckError(ID_ESCAPES, f"identifier {ident!r} escapes in the result type {tb!r}", t.loc, rule="unpack")
        ub = self._pop_linear(ub, binder, payload, t.loc)
        return tb, ctx_add(ur, ub, t.loc), S._rebuild(t, ident=ident, binder=binder, rhs=er, body=eb, bann=payload)

    def _with_borrow(self, ctx: Ctx, t: WithBorrow, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        ta, ua, ea = self.synth(ctx, t.arg)
        if not _owned(ta):
            raise CheckError(MISMATCH, f"withBorrow needs a uniquely owned value, got {ta!r}", t.loc, rule="withBorrow")
        if expected is not None and not _owned(expected):
            raise CheckError(MISMATCH, f"withBorrow produces an owned value, but {expected!r} was expected", t.loc, rule="withBorrow")
        inner = ta.body
        dom = Amp(WHOLE, inner)
        cod = None if expected is None else Amp(WHOLE, expected.body)
        fn = t.fn
        if isinstance(fn, Abs) and fn.ann is None:
            tb, ub, efn = self._abs(ctx, fn, dom, cod, t.loc, borrowing=True)
            return Amp(STAR, tb.body), ctx_add(ub, ua, t.loc), S._rebuild(t, fn=efn, arg=ea)
        g = self.globals.get(fn.name) if type(fn) is Var and fn.name not in ctx.vars else None
        if g is not None and type(g.signature) is Forall:
            tf = g.signature
            bindable = {v for v, _ in tf.binders}
            sol: dict = {}
            if not unify(tf.body, Fun(dom, dom if cod is None else cod), bindable, sol) or len(sol) < len(bindable):
                raise CheckError(MISMATCH, f"cannot instantiate {tf!r} as a borrowing function", t.loc, rule="withBorrow")
            tf, ef = instance(tf, g.body, sol)
            uf = Usage()
        else:
            tf, uf, ef = self.synth(ctx, fn)
        if not (isinstance(tf, Fun) and _whole(tf.dom) and _whole(tf.cod)):
            raise CheckError(MISMATCH, f"withBorrow needs a function between whole borrows, got {tf!r}", t.loc, rule="withBorrow")
        if not type_alpha_eq(tf.dom.body, inner):
            raise CheckError(MISMATCH, f"borrowing function domain {tf.dom.body!r} does not match {inner!r}", t.loc, rule="withBorrow")
        if cod is not None and not type_alpha_eq(tf.cod.body, cod.body):
            raise CheckError(MISMATCH, f"borrowing function returns {tf.cod.body!r}, expected {cod.body!r}", t.loc, rule="withBorrow")
        return Amp(STAR, tf.cod.body), ctx_add(uf, ua, t.loc), S._rebuild(t, fn=ef, arg=ea)

    def _clone(self, ctx: Ctx, t: Clone, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        tr, ur, er = self.synth(ctx, t.rhs)
        if not isinstance(tr, Box):
            raise CheckError(MISMATCH, f"clone expects a shared (boxed) value, got {tr!r}", t.loc, rule="clone")
        if not grade_leq(self.ring.one, tr.grade):
            raise CheckError(GRADE_EXCEEDED, f"clone needs one use of the box, but its grade is {tr.grade}", t.loc, rule="clone")
        old_ids = type_free_names(tr.body)
        if len(old_ids) != len(t.idents):
            raise CheckError(
                MISMATCH,
                f"clone binds {len(t.idents)} identifiers but the value carries {len(old_ids)}",
                t.loc,
                rule="clone",
            )
        body = t.body
        idents = []
        ctx2 = ctx
        for i in t.idents:
            i2, (body,) = self._freshen_name(i, ctx2, body)
            idents.append(i2)
            ctx2 = ctx2.bind_name(i2)
        binder, (body,) = self._freshen_var(t.binder, ctx2, body)
        renaming = dict(zip(old_ids, idents))
        fresh_ty = Amp(STAR, type_subst_names(tr.body, renaming))
        ctx2 = ctx2.bind(binder, LinearEntry(fresh_ty))
        tb, ub, eb = self.synth(ctx2, body, expected)
        escaped = set(idents).intersection(type_free_names(tb))
        if escaped:
            raise CheckError(ID_ESCAPES, f"cloned identifiers escape in the result type: {', '.join(sorted(escaped))}", t.loc, rule="clone")
        ub = self._pop_linear(ub, binder, fresh_ty, t.loc)
        return tb, ctx_add(ur, ub, t.loc), S._rebuild(
            t, binder=binder, idents=tuple(idents), rhs=er, body=eb, bann=fresh_ty, old_idents=tuple(old_ids)
        )

    # -- rules shared by both modes ---------------------------------------------

    def _abs(
        self, ctx: Ctx, fn: Abs, dom: Type, cod: Optional[Type], loc, borrowing: bool = False
    ) -> tuple[Type, Usage, Abs]:
        """The abstraction rule at domain `dom`: the body's type, synthesized
        against `cod` when it is given, its usage without the parameter, and
        the elaborated abstraction. An unused parameter is reported at `loc`.
        A borrowing function must return a whole borrow."""
        param, (body,) = self._freshen_var(fn.param, ctx, fn.body)
        tb, ub, eb = self.synth(ctx.bind(param, LinearEntry(dom)), body, cod)
        if borrowing and not _whole(tb):
            raise CheckError(MISMATCH, f"the borrowing function must return a whole borrow, got {tb!r}", loc, rule="withBorrow")
        ub = self._pop_linear(ub, param, dom, loc)
        return tb, ub, S._rebuild(fn, param=param, body=eb, ann=dom)

    def _promote(self, ctx: Ctx, t: Promote, grade: Grade, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        """The promotion rule at `grade`, with the body checked against
        `expected` when it is given. The body's type may not hold an owned
        value: every use of the box would get the same unique resource. A
        linear variable in the body is reported first."""
        tb, ub, eb = self.synth(ctx, t.body, expected)
        scaled = ctx_scale(grade, ub, t.loc)
        if _holds_owned(tb):
            raise CheckError(PROMOTION_OF_ALLOCATOR, "cannot promote a resource allocator", t.loc, rule="promotion")
        return Box(grade, tb), scaled, S._rebuild(t, body=eb, grade=grade)

    def _pack(self, ctx: Ctx, t: Pack, expected: Optional[Type]) -> tuple[Type, Usage, Term]:
        """The pack rule, with the body checked against `expected` (the
        existential's body at the packed identifier) when it is given."""
        i = t.ident
        if not ctx.has_name(i):
            raise CheckError(UNBOUND_VARIABLE, f"unknown identifier {i!r} in pack", t.loc, rule="pack")
        tb, ub, eb = self.synth(ctx, t.body, expected)
        return ExistsT(i, tb), ub, S._rebuild(t, body=eb)

    # -- binder bookkeeping ---------------------------------------------------

    def _pop_linear(self, u: Usage, x: str, ty: Type, loc) -> Usage:
        if x in u.linear or _discardable(ty):
            return u.without(x)
        raise CheckError(LINEAR_UNUSED, f"linear variable {x!r} is never used", loc, rule="linear")

    def _pop_graded(self, u: Usage, x: str, declared: Grade, loc) -> Usage:
        if x in u.linear:
            used = self.ring.one
        else:
            used = u.graded.get(x, self.ring.zero)
        try:
            ok = grade_leq(used, declared)
        except G.InstanceMismatch as e:
            raise CheckError(INSTANCE_MISMATCH, str(e), loc, rule="box-elim")
        if not ok:
            raise CheckError(
                GRADE_EXCEEDED,
                f"variable {x!r} used {used} times, which the declared grade {declared} does not cover",
                loc,
                rule="approx",
            )
        return u.without(x)

    def _check_wf(self, ty: Type, ctx: Ctx, loc) -> None:
        for n in type_free_names(ty):
            if not ctx.has_name(n):
                raise CheckError(UNBOUND_VARIABLE, f"unknown identifier {n!r} in type {ty!r}", loc, rule="type")
        for p in type_free_perm_vars(ty):
            if p not in ctx.perm_vars:
                raise CheckError(UNBOUND_VARIABLE, f"unknown permission variable {p!r} in type {ty!r}", loc, rule="type")
        _check_array_payloads(ty, loc)


def transparent_child(t: Term, name: str) -> bool:
    """Whether t's rule reads its child `name` only through one `synth`
    call on it, made in t's own context.

    Every evaluation position is read so, except the function of an
    application or withBorrow that is an abstraction or a primitive, and the
    function of an application that is a link of a primitive spine: the
    beta-redex and primitive-spine rules read those syntactically. An
    argument of a spine is read by the rule of the spine's outermost link.
    """
    return name != "fn" or not (type(t.fn) in (Abs, Prim) or (type(t) is App and S.prim_spine(t) is not None))


# The binding forms. Each rule types its right-hand side and synthesizes its
# body against the expected type, or None when inferring.
_BINDING_RULES = {
    LetPair: Checker._let_pair,
    LetUnit: Checker._let_unit,
    LetBox: Checker._let_box,
    Unpack: Checker._unpack,
    WithBorrow: Checker._with_borrow,
    Clone: Checker._clone,
}


def _check_array_payloads(ty: Type, loc) -> None:
    if type(ty) is ResT and ty.kind == "Array" and not isinstance(ty.payload, FloatT):
        raise CheckError(MISMATCH, "arrays hold floats only", loc, rule="type")
    for n in S._TYPE_CHILDREN[type(ty)]:
        _check_array_payloads(getattr(ty, n), loc)


# ---------------------------------------------------------------------------
# Whole programs


@dataclass
class CheckedProgram:
    ring: Semiring
    main_type: Type
    main_term: Term  # elaborated, with globals inlined
    def_types: dict[str, Type]


def check_program(prog) -> CheckedProgram:
    """Check every definition in order; returns main's type and elaborated body.

    Raises CheckError on the first rejected definition.
    """
    ring = prog.semiring
    checker = Checker(ring)
    def_types: dict[str, Type] = {}
    main_entry = None
    for d in prog.definitions:
        sig = d.signature
        if isinstance(sig, Forall):
            perm_vs = frozenset(v for v, k in sig.binders if k == "Permission")
            name_vs = frozenset(v for v, k in sig.binders if k == "Name")
            inner = sig.body
        else:
            perm_vs, name_vs, inner = frozenset(), frozenset(), sig
        ctx = Ctx(ring, perm_vars=perm_vs, name_vars=name_vs)
        checker._check_wf(inner, ctx, d.loc)
        try:
            _, usage, elab = checker.synth(ctx, d.body, inner)
        except G.GradeError as e:
            raise CheckError(type(e).__name__, str(e), d.loc, rule="algebra")
        if d.name == "main":
            if isinstance(sig, Forall):
                raise CheckError(MISMATCH, "main must be monomorphic", d.loc, rule="main")
            main_entry = (inner, elab)
        else:
            if not S.is_value(d.body):
                raise CheckError(MISMATCH, f"definition {d.name!r} must be a value", d.loc, rule="def")
            checker.globals[d.name] = GlobalDef(sig, elab)
        def_types[d.name] = sig
    if main_entry is None:
        raise CheckError(MISMATCH, "program has no main definition", None, rule="main")
    main_type, main_term = main_entry
    return CheckedProgram(ring, main_type, main_term, def_types)


# ---------------------------------------------------------------------------
# Runtime contexts (used by the metatheory checkers)


def runtime_ctx(heap, ring: Semiring) -> Ctx:
    """Build a typing context from a heap: graded entries for variables and
    reference entries for every live resource reference."""
    ctx = Ctx(ring)
    refs = {}
    for ref, cell in heap.refs.items():
        res = heap.resources.get(cell.ident)
        if res is None:
            continue
        if res.is_array:
            refs[ref] = RefEntry("Array", cell.ident, FloatT())
        else:
            refs[ref] = RefEntry("Ref", cell.ident, res.ty)
    vars_: dict[str, Union[LinearEntry, GradedEntry]] = {}
    for x, cell in heap.vars.items():
        if cell.ty is not None:
            vars_[x] = GradedEntry(cell.ty, cell.grade)
    ctx.vars = vars_
    ctx.refs = refs
    ctx.names = frozenset(heap.resources.keys())
    ctx.lenient_names = True
    return ctx
