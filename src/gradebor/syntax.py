"""Abstract syntax for terms and types, with substitution and structural queries.

Bound identifiers are compared up to alpha-equivalence: the `==` on terms and
types renames binders on the fly, so alpha-equivalent trees compare equal.
Runtime-only forms (wrapped uniques, unborrow, resource references) live in
the same tree but are never produced by the parser.

Traversals go through one table, built at import, of each term class's child
term fields and type annotation fields: `children` lists a node's subterms and
`map_children` rebuilds a node from mapped subterms. Each walker writes out
only its special cases (binders, references, metadata) and falls through to
`map_children` for every other node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional, Union, get_type_hints

from .grades import Grade, Permission, STAR


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class PermVar:
    """A prenex-bound permission variable."""

    name: str

    def __str__(self) -> str:
        return self.name


PermExpr = Union[Permission, PermVar]

# Every Type and Term node class: equality and hashing come from the base
# class (alpha-equivalence), and so does repr (the surface syntax), which a
# generated dataclass repr would otherwise shadow.
_node = dataclass(frozen=True, eq=False, repr=False)


class Type:
    def __eq__(self, other):
        return isinstance(other, Type) and type_alpha_eq(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.__class__.__name__)

    def __repr__(self):
        from .parser import print_type

        return print_type(self)


@_node
class Fun(Type):
    dom: Type
    cod: Type


@_node
class Prod(Type):
    left: Type
    right: Type


@_node
class UnitT(Type):
    pass


@_node
class NatT(Type):
    pass


@_node
class FloatT(Type):
    pass


@_node
class Box(Type):
    grade: Grade
    body: Type


@_node
class Amp(Type):
    perm: PermExpr
    body: Type


@_node
class ExistsT(Type):
    binder: str
    body: Type


@_node
class ResT(Type):
    kind: str  # "Array" or "Ref"
    ident: str
    payload: Type


@_node
class NameT(Type):
    """A bare Name-kinded identifier used in type position."""

    ident: str


@_node
class Forall(Type):
    """Prenex quantification over permission and name variables."""

    binders: tuple[tuple[str, str], ...]  # (var, kind) with kind "Permission" | "Name"
    body: Type


def star_of(body: Type) -> Amp:
    """The unique type *A, i.e. the borrow modality at star."""
    return Amp(STAR, body)


def perm_expr_eq(a: PermExpr, b: PermExpr) -> bool:
    if isinstance(a, PermVar) and isinstance(b, PermVar):
        return a.name == b.name
    if isinstance(a, Permission) and isinstance(b, Permission):
        return a == b
    return False


def type_alpha_eq(a: Type, b: Type, env_a=None, env_b=None) -> bool:
    env_a = env_a or {}
    env_b = env_b or {}
    match (a, b):
        case (Fun(d1, c1), Fun(d2, c2)):
            return type_alpha_eq(d1, d2, env_a, env_b) and type_alpha_eq(c1, c2, env_a, env_b)
        case (Prod(l1, r1), Prod(l2, r2)):
            return type_alpha_eq(l1, l2, env_a, env_b) and type_alpha_eq(r1, r2, env_a, env_b)
        case (UnitT(), UnitT()) | (NatT(), NatT()) | (FloatT(), FloatT()):
            return True
        case (Box(g1, t1), Box(g2, t2)):
            return g1 == g2 and type_alpha_eq(t1, t2, env_a, env_b)
        case (Amp(p1, t1), Amp(p2, t2)):
            return perm_expr_eq(p1, p2) and type_alpha_eq(t1, t2, env_a, env_b)
        case (ExistsT(i1, t1), ExistsT(i2, t2)):
            mark = object()
            return type_alpha_eq(t1, t2, {**env_a, i1: mark}, {**env_b, i2: mark})
        case (ResT(k1, i1, t1), ResT(k2, i2, t2)):
            if k1 != k2 or not type_alpha_eq(t1, t2, env_a, env_b):
                return False
            return env_a.get(i1, i1) is env_b.get(i2, i2) or env_a.get(i1, i1) == env_b.get(i2, i2)
        case (NameT(i1), NameT(i2)):
            return env_a.get(i1, i1) is env_b.get(i2, i2) or env_a.get(i1, i1) == env_b.get(i2, i2)
        case (Forall(bs1, t1), Forall(bs2, t2)):
            if len(bs1) != len(bs2) or any(k1 != k2 for (_, k1), (_, k2) in zip(bs1, bs2)):
                return False
            ea, eb = dict(env_a), dict(env_b)
            for (v1, _), (v2, _) in zip(bs1, bs2):
                mark = object()
                ea[v1] = mark
                eb[v2] = mark
            return type_alpha_eq(t1, t2, ea, eb)
        case _:
            return False


def type_free_names(ty: Type) -> set[str]:
    """Free Name-kinded identifiers of a type."""
    match ty:
        case Fun(d, c):
            return type_free_names(d) | type_free_names(c)
        case Prod(l, r):
            return type_free_names(l) | type_free_names(r)
        case Box(_, t) | Amp(_, t):
            return type_free_names(t)
        case ExistsT(i, t):
            return type_free_names(t) - {i}
        case ResT(_, i, t):
            return {i} | type_free_names(t)
        case NameT(i):
            return {i}
        case Forall(bs, t):
            bound = {v for v, k in bs if k == "Name"}
            return type_free_names(t) - bound
        case _:
            return set()


def type_free_perm_vars(ty: Type) -> set[str]:
    match ty:
        case Fun(d, c):
            return type_free_perm_vars(d) | type_free_perm_vars(c)
        case Prod(l, r):
            return type_free_perm_vars(l) | type_free_perm_vars(r)
        case Box(_, t):
            return type_free_perm_vars(t)
        case Amp(p, t):
            out = type_free_perm_vars(t)
            if isinstance(p, PermVar):
                out = out | {p.name}
            return out
        case ExistsT(_, t) | ResT(_, _, t):
            return type_free_perm_vars(t)
        case Forall(bs, t):
            bound = {v for v, k in bs if k == "Permission"}
            return type_free_perm_vars(t) - bound
        case _:
            return set()


def type_subst_names(ty: Type, env: dict[str, str]) -> Type:
    """Rename free Name identifiers of a type."""
    if not env:
        return ty
    match ty:
        case Fun(d, c):
            return Fun(type_subst_names(d, env), type_subst_names(c, env))
        case Prod(l, r):
            return Prod(type_subst_names(l, env), type_subst_names(r, env))
        case Box(g, t):
            return Box(g, type_subst_names(t, env))
        case Amp(p, t):
            return Amp(p, type_subst_names(t, env))
        case ExistsT(i, t):
            inner = {k: v for k, v in env.items() if k != i}
            return ExistsT(i, type_subst_names(t, inner))
        case ResT(k, i, t):
            return ResT(k, env.get(i, i), type_subst_names(t, env))
        case NameT(i):
            return NameT(env.get(i, i))
        case Forall(bs, t):
            bound = {v for v, k in bs if k == "Name"}
            inner = {k: v for k, v in env.items() if k not in bound}
            return Forall(bs, type_subst_names(t, inner))
        case _:
            return ty


def type_subst_perms(ty: Type, env: dict[str, PermExpr]) -> Type:
    """Instantiate permission variables in a type."""
    if not env:
        return ty
    match ty:
        case Fun(d, c):
            return Fun(type_subst_perms(d, env), type_subst_perms(c, env))
        case Prod(l, r):
            return Prod(type_subst_perms(l, env), type_subst_perms(r, env))
        case Box(g, t):
            return Box(g, type_subst_perms(t, env))
        case Amp(p, t):
            if isinstance(p, PermVar) and p.name in env:
                p = env[p.name]
            return Amp(p, type_subst_perms(t, env))
        case ExistsT(i, t):
            return ExistsT(i, type_subst_perms(t, env))
        case ResT(k, i, t):
            return ResT(k, i, type_subst_perms(t, env))
        case Forall(bs, t):
            bound = {v for v, k in bs if k == "Permission"}
            inner = {k: v for k, v in env.items() if k not in bound}
            return Forall(bs, type_subst_perms(t, inner))
        case _:
            return ty


# ---------------------------------------------------------------------------
# Terms

PRIMITIVES = {
    "newArray": 1,
    "readArray": 2,
    "writeArray": 3,
    "deleteArray": 1,
    "newRef": 1,
    "readRef": 1,
    "swapRef": 2,
    "deleteRef": 1,
}


class Term:
    loc: Optional[Loc]

    def __eq__(self, other):
        return isinstance(other, Term) and alpha_eq(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.__class__.__name__)

    def __repr__(self):
        from .parser import print_term

        return print_term(self)


def _loc_field():
    return field(default=None, compare=False)


@_node
class Var(Term):
    name: str
    loc: Optional[Loc] = _loc_field()


@_node
class Abs(Term):
    param: str
    body: Term
    ann: Optional[Type] = None  # domain annotation; filled in by elaboration
    loc: Optional[Loc] = _loc_field()


@_node
class App(Term):
    fn: Term
    arg: Term
    loc: Optional[Loc] = _loc_field()


@_node
class Pair(Term):
    left: Term
    right: Term
    loc: Optional[Loc] = _loc_field()


@_node
class LetPair(Term):
    left: str
    right: str
    rhs: Term
    body: Term
    lann: Optional[Type] = None
    rann: Optional[Type] = None
    loc: Optional[Loc] = _loc_field()


@_node
class UnitVal(Term):
    loc: Optional[Loc] = _loc_field()


@_node
class LetUnit(Term):
    rhs: Term
    body: Term
    loc: Optional[Loc] = _loc_field()


@_node
class Promote(Term):
    body: Term
    grade: Optional[Grade] = None  # filled in by elaboration
    loc: Optional[Loc] = _loc_field()


@_node
class LetBox(Term):
    binder: str
    rhs: Term
    body: Term
    ann: Optional[Type] = None  # declared box type, when written
    loc: Optional[Loc] = _loc_field()


@_node
class Pack(Term):
    ident: str
    body: Term
    loc: Optional[Loc] = _loc_field()


@_node
class Unpack(Term):
    ident: str
    binder: str
    rhs: Term
    body: Term
    bann: Optional[Type] = None
    loc: Optional[Loc] = _loc_field()


@_node
class WithBorrow(Term):
    fn: Term
    arg: Term
    loc: Optional[Loc] = _loc_field()


@_node
class Split(Term):
    body: Term
    loc: Optional[Loc] = _loc_field()


@_node
class Join(Term):
    body: Term  # a pair of borrows
    loc: Optional[Loc] = _loc_field()


@_node
class Push(Term):
    body: Term
    loc: Optional[Loc] = _loc_field()


@_node
class Pull(Term):
    body: Term
    loc: Optional[Loc] = _loc_field()


@_node
class Share(Term):
    body: Term
    grade: Optional[Grade] = None  # result box grade, filled in by elaboration
    loc: Optional[Loc] = _loc_field()


@_node
class Clone(Term):
    binder: str
    idents: tuple[str, ...]
    rhs: Term
    body: Term
    bann: Optional[Type] = None
    # identifiers of the cloned payload type in binder order, filled in by
    # elaboration; the machine maps the fresh copies through this list
    old_idents: Optional[tuple[str, ...]] = None
    loc: Optional[Loc] = _loc_field()


@_node
class NatLit(Term):
    value: int
    loc: Optional[Loc] = _loc_field()


@_node
class FloatLit(Term):
    value: float
    loc: Optional[Loc] = _loc_field()


@_node
class Prim(Term):
    name: str
    loc: Optional[Loc] = _loc_field()


# Runtime-only forms.


@_node
class Uniq(Term):
    """The runtime wrapper *t covering both owned and borrowed values.

    The permission marker records at which grade of the & modality the
    wrapper currently types; the machine maintains it but never branches
    on it.
    """

    body: Term
    perm: Permission = STAR
    loc: Optional[Loc] = _loc_field()


@_node
class Unborrow(Term):
    body: Term
    loc: Optional[Loc] = _loc_field()


@_node
class RefVal(Term):
    ref: str
    loc: Optional[Loc] = _loc_field()


RUNTIME_ONLY = (Uniq, Unborrow, RefVal)


class _Shape(NamedTuple):
    fields: tuple[str, ...]  # every constructor field, in order
    terms: tuple[str, ...]  # fields holding child terms
    types: tuple[str, ...]  # fields holding optional Type annotations


def _shape(cls: type) -> _Shape:
    hints = get_type_hints(cls)
    names = tuple(f.name for f in fields(cls))
    return _Shape(
        names,
        tuple(n for n in names if hints[n] is Term),
        tuple(n for n in names if hints[n] == Optional[Type]),
    )


_SHAPES: dict[type, _Shape] = {cls: _shape(cls) for cls in Term.__subclasses__()}


def children(t: Term) -> list[Term]:
    """The immediate subterms of t, in field order."""
    return [getattr(t, n) for n in _SHAPES[type(t)].terms]


def map_children(
    t: Term, f: Callable[[Term], Term], on_type: Optional[Callable[[Type], Type]] = None
) -> Term:
    """Apply f to each child term (and on_type to each present annotation).

    Returns t itself when every result is the object it replaces.
    """
    shape = _SHAPES[type(t)]
    changes = {}
    for n in shape.terms:
        old = getattr(t, n)
        new = f(old)
        if new is not old:
            changes[n] = new
    if on_type is not None:
        for n in shape.types:
            old = getattr(t, n)
            if old is not None:
                new = on_type(old)
                if new is not old:
                    changes[n] = new
    return _rebuild(t, **changes) if changes else t


def alpha_eq(a: Term, b: Term, env_a=None, env_b=None) -> bool:
    env_a = env_a or {}
    env_b = env_b or {}

    def rec(x, y, ea, eb):
        return alpha_eq(x, y, ea, eb)

    match (a, b):
        case (Var(n1), Var(n2)):
            return _name_eq(env_a, n1, env_b, n2)
        case (Abs(p1, b1, an1), Abs(p2, b2, an2)):
            if not _ann_eq(an1, an2):
                return False
            mark = _fresh_mark()
            return rec(b1, b2, {**env_a, p1: mark}, {**env_b, p2: mark})
        case (App(f1, a1), App(f2, a2)):
            return rec(f1, f2, env_a, env_b) and rec(a1, a2, env_a, env_b)
        case (Pair(l1, r1), Pair(l2, r2)):
            return rec(l1, l2, env_a, env_b) and rec(r1, r2, env_a, env_b)
        case (LetPair(x1, y1, t1, u1, la1, ra1), LetPair(x2, y2, t2, u2, la2, ra2)):
            if not (_ann_eq(la1, la2) and _ann_eq(ra1, ra2)):
                return False
            if not rec(t1, t2, env_a, env_b):
                return False
            m1, m2 = _fresh_mark(), _fresh_mark()
            return rec(u1, u2, {**env_a, x1: m1, y1: m2}, {**env_b, x2: m1, y2: m2})
        case (UnitVal(), UnitVal()):
            return True
        case (LetUnit(t1, u1), LetUnit(t2, u2)):
            return rec(t1, t2, env_a, env_b) and rec(u1, u2, env_a, env_b)
        case (Promote(t1, g1), Promote(t2, g2)):
            return g1 == g2 and rec(t1, t2, env_a, env_b)
        case (LetBox(x1, t1, u1, an1), LetBox(x2, t2, u2, an2)):
            if not _ann_eq(an1, an2) or not rec(t1, t2, env_a, env_b):
                return False
            mark = _fresh_mark()
            return rec(u1, u2, {**env_a, x1: mark}, {**env_b, x2: mark})
        case (Pack(i1, t1), Pack(i2, t2)):
            return _name_eq(env_a, i1, env_b, i2) and rec(t1, t2, env_a, env_b)
        case (Unpack(i1, x1, t1, u1, _), Unpack(i2, x2, t2, u2, _)):
            if not rec(t1, t2, env_a, env_b):
                return False
            mi, mx = _fresh_mark(), _fresh_mark()
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
                m = _fresh_mark()
                ea[i1] = m
                eb[i2] = m
            mx = _fresh_mark()
            ea[x1] = mx
            eb[x2] = mx
            return rec(u1, u2, ea, eb)
        case (NatLit(v1), NatLit(v2)):
            return v1 == v2
        case (FloatLit(v1), FloatLit(v2)):
            return v1 == v2
        case (Prim(n1), Prim(n2)):
            return n1 == n2
        case (Uniq(t1, p1), Uniq(t2, p2)):
            return p1 == p2 and rec(t1, t2, env_a, env_b)
        case (Unborrow(t1), Unborrow(t2)):
            return rec(t1, t2, env_a, env_b)
        case (RefVal(r1), RefVal(r2)):
            return r1 == r2
        case _:
            return False


_mark_counter = itertools.count()


def _fresh_mark():
    return next(_mark_counter)


def _name_eq(env_a, n1, env_b, n2) -> bool:
    return env_a.get(n1, ("free", n1)) == env_b.get(n2, ("free", n2))


def _ann_eq(a, b) -> bool:
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return a == b


# A memo for free_vars or refs_of: id(node) -> (node, its set). Holding the
# node keeps it alive, so no other node can take its id while the memo lives.
Memo = dict[int, tuple["Term", set[str]]]


def free_vars(t: Term, memo: Optional[Memo] = None) -> set[str]:
    """Free term variables and free name identifiers of a term.

    Calls sharing `memo` walk each distinct node once; the sets they return
    are then shared between nodes and must not be mutated.
    """
    if memo is not None and (hit := memo.get(id(t))) is not None:
        return hit[1]
    match t:
        case Var(n):
            out = {n}
        case Abs(p, b, _):
            out = free_vars(b, memo) - {p}
        case LetPair(x, y, rhs, body):
            out = free_vars(rhs, memo) | (free_vars(body, memo) - {x, y})
        case LetBox(x, rhs, body):
            out = free_vars(rhs, memo) | (free_vars(body, memo) - {x})
        case Pack(i, b):
            out = {i} | free_vars(b, memo)
        case Unpack(i, x, rhs, body):
            out = free_vars(rhs, memo) | (free_vars(body, memo) - {i, x})
        case Clone(x, ids, rhs, body):
            out = free_vars(rhs, memo) | (free_vars(body, memo) - {x, *ids})
        case _:
            out = set()
            for c in children(t):
                out |= free_vars(c, memo)
    if memo is not None:
        memo[id(t)] = (t, out)
    return out


def refs_of(t: Term, memo: Optional[Memo] = None) -> set[str]:
    """Every resource reference occurring anywhere in the term.

    `memo` is used as in `free_vars`.
    """
    if memo is not None and (hit := memo.get(id(t))) is not None:
        return hit[1]
    match t:
        case RefVal(r):
            out = {r}
        case _:
            out = set()
            for c in children(t):
                out |= refs_of(c, memo)
    if memo is not None:
        memo[id(t)] = (t, out)
    return out


def bound_names(t: Term, memo: Optional[Memo] = None) -> set[str]:
    """Every variable and name identifier that some binder inside t binds.

    `memo` is used as in `free_vars`.
    """
    if memo is not None and (hit := memo.get(id(t))) is not None:
        return hit[1]
    out: set[str] = set()
    for c in children(t):
        out |= bound_names(c, memo)
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
    if memo is not None:
        memo[id(t)] = (t, out)
    return out


_fresh_counter = itertools.count(1)


def fresh_name(base: str, avoid: set[str]) -> str:
    base = base.split(".")[0] or "x"
    while True:
        cand = f"{base}.{next(_fresh_counter)}"
        if cand not in avoid:
            return cand


def _rebuild(t: Term, **changes) -> Term:
    """t with some fields replaced; t itself when every new value is the old one."""
    if all(getattr(t, n) is v for n, v in changes.items()):
        return t
    vals = {n: getattr(t, n) for n in _SHAPES[type(t)].fields}
    vals.update(changes)
    return type(t)(**vals)


def subst(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution of s for the term variable x."""
    fv_s = free_vars(s)

    def go(t: Term, env: dict[str, Term]) -> Term:
        match t:
            case Var(n):
                return env.get(n, t)
            case Abs(p, body, _):
                p2, env2 = _avoid(p, env, fv_s)
                return _rebuild(t, param=p2, body=go(body, env2))
            case LetPair(l, r, rhs, body):
                l2, env2 = _avoid(l, env, fv_s)
                r2, env3 = _avoid(r, env2, fv_s)
                return _rebuild(t, left=l2, right=r2, rhs=go(rhs, env), body=go(body, env3))
            case LetBox(b, rhs, body):
                b2, env2 = _avoid(b, env, fv_s)
                return _rebuild(t, binder=b2, rhs=go(rhs, env), body=go(body, env2))
            case Unpack(i, b, rhs, body):
                i2, env2 = _avoid(i, env, fv_s)
                b2, env3 = _avoid(b, env2, fv_s)
                return _rebuild(t, ident=i2, binder=b2, rhs=go(rhs, env), body=go(body, env3))
            case Clone(b, ids, rhs, body):
                env2 = env
                ids2 = []
                for i in ids:
                    i2, env2 = _avoid(i, env2, fv_s)
                    ids2.append(i2)
                b2, env3 = _avoid(b, env2, fv_s)
                ids2 = ids if list(ids) == ids2 else tuple(ids2)
                return _rebuild(t, binder=b2, idents=ids2, rhs=go(rhs, env), body=go(body, env3))
            case _:
                return map_children(t, lambda c: go(c, env))

    def _avoid(binder: str, env: dict[str, Term], avoid: set[str]):
        env = {k: v for k, v in env.items() if k != binder}
        if binder in avoid:
            nb = fresh_name(binder, avoid | set(env))
            env[binder] = Var(nb)
            return nb, env
        return binder, env

    return go(t, {x: s})


def subst_names(t: Term, env: dict[str, str]) -> Term:
    """Rename free name identifiers in a term (and in its type annotations)."""
    if not env:
        return t

    def go(t: Term, env: dict[str, str]) -> Term:
        match t:
            case Pack(i, body):
                return _rebuild(t, ident=env.get(i, i), body=go(body, env))
            case Unpack(i, b, rhs, body, bann):
                inner = {k: v for k, v in env.items() if k != i}
                return _rebuild(
                    t,
                    rhs=go(rhs, env),
                    body=go(body, inner),
                    bann=type_subst_names(bann, inner) if bann else None,
                )
            case Clone(b, ids, rhs, body, bann, old_idents):
                inner = {k: v for k, v in env.items() if k not in ids}
                return _rebuild(
                    t,
                    rhs=go(rhs, env),
                    body=go(body, inner),
                    bann=type_subst_names(bann, inner) if bann else None,
                    old_idents=tuple(env.get(i, i) for i in old_idents) if old_idents else None,
                )
            case _:
                return map_children(t, lambda c: go(c, env), lambda ty: type_subst_names(ty, env))

    return go(t, env)


def rename_refs(theta: dict[str, str], t: Term) -> Term:
    """Replace every reference in dom(theta) by its image."""
    if not theta:
        return t
    match t:
        case RefVal(r):
            return _rebuild(t, ref=theta[r]) if r in theta else t
        case _:
            return map_children(t, lambda c: rename_refs(theta, c))


def prim_spine(t: Term) -> Optional[tuple[str, list[Term]]]:
    """Decompose `p v1 ... vk` with a primitive head, if t has that shape."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    if isinstance(t, Prim):
        return t.name, list(reversed(args))
    return None


def is_value(t: Term) -> bool:
    """Whether t is a normal form under the machine's reduction rules."""
    match t:
        case Pair(l, r):
            return is_value(l) and is_value(r)
        case UnitVal() | Abs() | NatLit() | FloatLit() | Prim() | RefVal():
            return True
        case Promote(b, _):
            return is_value(b)
        case Pack(_, b):
            return is_value(b)
        case Uniq(b, _):
            return is_value(b)
        case App():
            spine = prim_spine(t)
            if spine is None:
                return False
            name, args = spine
            arity = PRIMITIVES.get(name)
            return arity is not None and len(args) < arity and all(is_value(a) for a in args)
        case _:
            # unborrow t always reduces once its body does, so it is not a value
            return False


def user_writable(t: Term) -> bool:
    """True when the term contains no runtime-only constructors."""
    if isinstance(t, RUNTIME_ONLY):
        return False
    return all(user_writable(c) for c in children(t))


def strip_meta(t: Term) -> Term:
    """Drop elaboration metadata (annotations and box grades) for comparisons."""
    t = map_children(t, strip_meta, lambda _: None)
    meta = {n: None for n in ("grade", "old_idents") if getattr(t, n, None) is not None}
    return _rebuild(t, **meta) if meta else t
