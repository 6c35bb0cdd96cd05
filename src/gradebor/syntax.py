"""Abstract syntax for terms and types, with substitution and structural queries.

Bound identifiers are compared up to alpha-equivalence: the `==` on types
renames `exists` binders on the fly, so alpha-equivalent types compare equal,
and it answers at once when both sides are one object.
A `Forall` only begins a definition's signature; no type nests one. Terms
compare and hash by identity; `alpha_eq` compares them up to renaming.
Runtime-only forms (wrapped uniques, unborrow, resource references) live in
the same tree but are never produced by the parser.

Traversals go through tables built at import, from each class's field
annotations as written. `_SHAPES` holds each term class's child term fields,
type annotation fields and binder fields; `_TYPE_CHILDREN` holds each type
class's child type fields; `_FIELDS` holds each class's constructor fields.
Three rules hold:

- `_BINDS` lists the binder fields of each binding form (`Abs.param`,
  `LetPair.left`/`right`, `LetBox.binder`, `Unpack.ident`/`binder`,
  `Clone.idents`/`binder`), in binding order.
- Every binder scopes over the node's `body` and never over its `rhs`.
- Every walker, on terms and on types, writes out only its special cases
  and then loops over the table's field names, calling itself directly on
  each child: one Python frame per tree level, fewer than the parser
  spends, so a term that parses can be walked under the same recursion
  limit. A walker that rebuilds a node passes its changed fields to
  `_rebuild`, which returns the node itself when nothing changed.

Each question on types has one walker. `type_alpha_eq` matches: it is `==`
with nothing bindable, and `typecheck.unify` with a signature's binders
bindable. `type_free_names` and `type_free_perm_vars` list the free
identifiers and permission variables in the order they are written.
`type_subst_names` renames identifiers and replaces permission variables in
one pass, as `subst_names` does on a term and its annotations.

`children` lists a node's subterms, for the walks that only read them, such
as the generator's `constructors_used`.

Every node class is built once, by `_node`, with its fields in slots, so a
node has no `__dict__`. Nodes are immutable by convention: the classes are
not frozen, since a frozen class costs nearly three times as much to build,
and no code assigns a field of a node once it is built. So `free_vars`,
`refs_of` and `bound_names` compute their answer for a node with child
terms once and store it in one of the node's three `_STORED` slots; a leaf
has no such slot, stores nothing and gets a fresh set on every call. A
stored set is shared by every caller that asks about that node, and by the
node's ancestors whose free variables all come from it, so no caller may
mutate it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields
from typing import NamedTuple, Optional, Union

from .grades import Grade, Permission, STAR


class Loc:
    """A 1-based source line and column: immutable, equal and hashed by
    both fields.

    The parser makes one for every node it builds, so the class is slotted
    and sets its fields through the slot descriptors: that costs about half
    what a frozen dataclass's `__init__` does.
    """

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        _set_line(self, line)
        _set_col(self, col)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not Loc:
            return NotImplemented
        return self.line == other.line and self.col == other.col

    def __hash__(self) -> int:
        return hash((self.line, self.col))

    def __reduce__(self):
        return Loc, (self.line, self.col)

    def __repr__(self) -> str:
        return f"Loc(line={self.line!r}, col={self.col!r})"

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


_set_line, _set_col = Loc.line.__set__, Loc.col.__set__


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class PermVar:
    """A prenex-bound permission variable."""

    name: str

    def __str__(self) -> str:
        return self.name


PermExpr = Union[Permission, PermVar]

# The slots in which a term with a child term keeps the answers of
# `free_vars`, `refs_of` and `bound_names` (see the module docstring).
_STORED = ("_free", "_refs", "_bound")


def _node(name: str, bases: tuple, ns: dict) -> type:
    """The metaclass of every Term and Type class, which builds each node
    class once, slotted: the class's annotated fields, in order, are its
    `__slots__` and its constructor's parameters, so a node has no
    `__dict__`. A term class with a field annotated `Term` also gets the
    three `_STORED` slots, which its constructor sets to None; a leaf reads
    Term's None and stores nothing. The module postpones the evaluation of
    annotations, so they are read as written.

    The class is then made a dataclass, for `__match_args__` and the field
    records that `dataclasses.fields` reads; those records carry no
    defaults, which live in the constructor. Equality and hashing come from
    the base class (alpha-equivalence for types, identity for terms), and so
    does repr (the surface syntax).

    It is a function, so each class it builds is a plain `type`: an instance
    check or class pattern against a class whose type is a subclass of
    `type` goes through `__instancecheck__`, which costs about twice as much
    and a recursion level.
    """
    ann = ns.get("__annotations__", {})
    own, stored = tuple(ann), _STORED if "Term" in ann.values() else ()
    defaults = {n: ns.pop(n) for n in own if n in ns}
    ns["__init__"] = _constructor(own, defaults, stored)
    ns["__slots__"] = (*own, *stored)
    return dataclass(init=False, eq=False, repr=False)(type(name, bases, ns))


def _constructor(names: tuple[str, ...], defaults: dict, stored: tuple[str, ...]):
    """A node class's `__init__`: it sets each field in `names` from its
    argument or its default, then each `stored` slot to None. It is compiled
    from the names, as `dataclasses` compiles one."""
    params = ["self", *(f"{n}=_{n}" if n in defaults else n for n in names)]
    lines = [f"self.{n} = {n}" for n in names] + [f"self.{n} = None" for n in stored]
    src = f"def __init__({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in lines or ["pass"])
    scope: dict = {}
    exec(src, {f"_{n}": v for n, v in defaults.items()}, scope)
    return scope["__init__"]


class Type:
    __slots__ = ()

    def __eq__(self, other):
        return self is other or isinstance(other, Type) and type_alpha_eq(self, other)

    def __hash__(self):
        return hash(self.__class__.__name__)

    def __repr__(self):
        from .parser import print_type

        return print_type(self)


class Fun(Type, metaclass=_node):
    dom: Type
    cod: Type


class Prod(Type, metaclass=_node):
    left: Type
    right: Type


class UnitT(Type, metaclass=_node):
    pass


class NatT(Type, metaclass=_node):
    pass


class FloatT(Type, metaclass=_node):
    pass


class Box(Type, metaclass=_node):
    grade: Grade
    body: Type


class Amp(Type, metaclass=_node):
    perm: PermExpr
    body: Type


class ExistsT(Type, metaclass=_node):
    binder: str
    body: Type


class ResT(Type, metaclass=_node):
    kind: str  # "Array" or "Ref"
    ident: str
    payload: Type


class NameT(Type, metaclass=_node):
    """A bare Name-kinded identifier used in type position."""

    ident: str


class Forall(Type, metaclass=_node):
    """Prenex quantification over permission and name variables: the top of a
    polymorphic definition's signature, and nowhere else."""

    binders: tuple[tuple[str, str], ...]  # (var, kind) with kind "Permission" | "Name"
    body: Type


def _child_fields(cls: type, sort: str) -> tuple[str, ...]:
    """The fields of a node class annotated `sort`, in order, read as written
    (the module postpones the evaluation of annotations)."""
    return tuple(f.name for f in fields(cls) if f.type == sort)


_TYPE_CHILDREN: dict[type, tuple[str, ...]] = {cls: _child_fields(cls, "Type") for cls in Type.__subclasses__()}


_NOTHING: frozenset = frozenset()


def type_alpha_eq(a: Type, b: Type, bindable=_NOTHING, sol=None, env_a=None, env_b=None) -> bool:
    """Whether b matches a: whether they are equal up to renaming their
    `exists` binders, once each free variable of a in `bindable` stands for
    its solution in `sol`. With nothing bindable this is alpha-equivalence.

    A bindable variable without a solution takes the permission or the free
    identifier of b in its place, and `sol` records it, also when the match
    fails later. It never takes an identifier that an `exists` of b binds:
    `env_a` and `env_b` map each pair of binders in scope to one fresh mark,
    and a mark is not an identifier. The binders of a signature's `Forall`
    are compared by name, as are permission variables that are not bindable.
    """
    cls = type(a)
    if type(b) is not cls:
        return False
    if env_a is None:
        env_a, env_b = {}, {}
    if cls is Box:
        if a.grade != b.grade:
            return False
    elif cls is Amp:
        p = a.perm
        if type(p) is PermVar and p.name in bindable:
            if sol.setdefault(p.name, b.perm) != b.perm:
                return False
        elif p != b.perm:
            return False
    elif cls is ResT or cls is NameT:
        if cls is ResT and a.kind != b.kind:
            return False
        i, j = env_a.get(a.ident, a.ident), env_b.get(b.ident, b.ident)
        if i in bindable:
            if type(j) is not str or sol.setdefault(i, j) != j:
                return False
        elif i != j:
            return False
    elif cls is ExistsT:
        mark = object()
        env_a, env_b = {**env_a, a.binder: mark}, {**env_b, b.binder: mark}
    elif cls is Forall:
        if a.binders != b.binders:
            return False
    for n in _TYPE_CHILDREN[cls]:
        if not type_alpha_eq(getattr(a, n), getattr(b, n), bindable, sol, env_a, env_b):
            return False
    return True


def type_free_names(ty: Type, bound=_NOTHING, out=None) -> list[str]:
    """Free Name-kinded identifiers of a type, in first-occurrence order,
    which is the order they are written in. `bound` and `out` are the
    recursion's: the `exists` binders in scope and the list found so far."""
    if out is None:
        out = []
    cls = type(ty)
    if cls is ResT or cls is NameT:
        if ty.ident not in bound and ty.ident not in out:
            out.append(ty.ident)
    elif cls is ExistsT:
        bound = bound | {ty.binder}
    for n in _TYPE_CHILDREN[cls]:
        type_free_names(getattr(ty, n), bound, out)
    return out


def type_free_perm_vars(ty: Type, out=None) -> list[str]:
    """Permission variables of a type, in first-occurrence order."""
    if out is None:
        out = []
    cls = type(ty)
    if cls is Amp and type(ty.perm) is PermVar and ty.perm.name not in out:
        out.append(ty.perm.name)
    for n in _TYPE_CHILDREN[cls]:
        type_free_perm_vars(getattr(ty, n), out)
    return out


def type_subst_names(ty: Type, env: dict[str, str], perms=_NOTHING) -> Type:
    """Rename free Name identifiers of a type, renaming each binder that
    would capture one of env's new names (see `_unclash`), and replace each
    permission variable in `perms` by its permission, in the same pass."""
    if not env and not perms:
        return ty
    cls = type(ty)
    changes = {}
    if cls is ResT or cls is NameT:
        if ty.ident in env:
            changes["ident"] = env[ty.ident]
    elif cls is Amp:
        if type(ty.perm) is PermVar and ty.perm.name in perms:
            changes["perm"] = perms[ty.perm.name]
    elif cls is ExistsT:
        env, (binder,) = _unclash({k: v for k, v in env.items() if k != ty.binder}, (ty.binder,), ty)
        if binder != ty.binder:
            changes["binder"] = binder
    for n in _TYPE_CHILDREN[cls]:
        old = getattr(ty, n)
        new = type_subst_names(old, env, perms)
        if new is not old:
            changes[n] = new
    return _rebuild(ty, **changes) if changes else ty


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
    __slots__ = ()
    # What a leaf reads for `_STORED`: a leaf stores no set (see `_node`).
    _free = _refs = _bound = None

    def __repr__(self):
        from .parser import print_term

        return print_term(self)


class Var(Term, metaclass=_node):
    name: str
    loc: Optional[Loc] = None


class Abs(Term, metaclass=_node):
    param: str
    body: Term
    ann: Optional[Type] = None  # domain annotation; filled in by elaboration
    loc: Optional[Loc] = None


class App(Term, metaclass=_node):
    fn: Term
    arg: Term
    loc: Optional[Loc] = None


class Pair(Term, metaclass=_node):
    left: Term
    right: Term
    loc: Optional[Loc] = None


class LetPair(Term, metaclass=_node):
    left: str
    right: str
    rhs: Term
    body: Term
    lann: Optional[Type] = None
    rann: Optional[Type] = None
    loc: Optional[Loc] = None


class UnitVal(Term, metaclass=_node):
    loc: Optional[Loc] = None


class LetUnit(Term, metaclass=_node):
    rhs: Term
    body: Term
    loc: Optional[Loc] = None


class Promote(Term, metaclass=_node):
    body: Term
    grade: Optional[Grade] = None  # filled in by elaboration
    loc: Optional[Loc] = None


class LetBox(Term, metaclass=_node):
    binder: str
    rhs: Term
    body: Term
    ann: Optional[Type] = None  # declared box type, when written
    loc: Optional[Loc] = None


class Pack(Term, metaclass=_node):
    ident: str
    body: Term
    loc: Optional[Loc] = None


class Unpack(Term, metaclass=_node):
    ident: str
    binder: str
    rhs: Term
    body: Term
    bann: Optional[Type] = None
    loc: Optional[Loc] = None


class WithBorrow(Term, metaclass=_node):
    fn: Term
    arg: Term
    loc: Optional[Loc] = None


class Split(Term, metaclass=_node):
    body: Term
    loc: Optional[Loc] = None


class Join(Term, metaclass=_node):
    body: Term  # a pair of borrows
    loc: Optional[Loc] = None


class Push(Term, metaclass=_node):
    body: Term
    loc: Optional[Loc] = None


class Pull(Term, metaclass=_node):
    body: Term
    loc: Optional[Loc] = None


class Share(Term, metaclass=_node):
    body: Term
    grade: Optional[Grade] = None  # result box grade, filled in by elaboration
    loc: Optional[Loc] = None


class Clone(Term, metaclass=_node):
    binder: str
    idents: tuple[str, ...]
    rhs: Term
    body: Term
    bann: Optional[Type] = None
    # identifiers of the cloned payload type in binder order, filled in by
    # elaboration; the machine maps the fresh copies through this list
    old_idents: Optional[tuple[str, ...]] = None
    loc: Optional[Loc] = None


class NatLit(Term, metaclass=_node):
    value: int
    loc: Optional[Loc] = None


class FloatLit(Term, metaclass=_node):
    value: float
    loc: Optional[Loc] = None


class Prim(Term, metaclass=_node):
    name: str
    ann: Optional[Type] = None  # newRef's payload type; filled in by elaboration
    loc: Optional[Loc] = None


# Runtime-only forms.


class Uniq(Term, metaclass=_node):
    """The runtime wrapper *t covering both owned and borrowed values.

    The permission marker records at which grade of the & modality the
    wrapper currently types; the machine maintains it but never branches
    on it.
    """

    body: Term
    perm: Permission = STAR
    loc: Optional[Loc] = None


class Unborrow(Term, metaclass=_node):
    body: Term
    loc: Optional[Loc] = None


class RefVal(Term, metaclass=_node):
    ref: str
    loc: Optional[Loc] = None


class _Shape(NamedTuple):
    terms: tuple[str, ...]  # fields holding child terms
    types: tuple[str, ...]  # fields holding optional Type annotations
    binds: tuple[str, ...]  # binder fields, in binding order; they scope over `body`


# The binder fields of each binding form, in binding order. Every binder
# scopes over the node's `body` and never over its `rhs`.
_BINDS: dict[type, tuple[str, ...]] = {
    Abs: ("param",),
    LetPair: ("left", "right"),
    LetBox: ("binder",),
    Unpack: ("ident", "binder"),
    Clone: ("idents", "binder"),
}


_SHAPES: dict[type, _Shape] = {
    cls: _Shape(_child_fields(cls, "Term"), _child_fields(cls, "Optional[Type]"), _BINDS.get(cls, ()))
    for cls in Term.__subclasses__()
}

# Every constructor field of every Term and Type class, in order.
_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.init) for cls in (*Term.__subclasses__(), *Type.__subclasses__())
}


def children(t: Term) -> list[Term]:
    """The immediate subterms of t, in field order."""
    return [getattr(t, n) for n in _SHAPES[type(t)].terms]


def _bound_by(t: Term, binds: tuple[str, ...]) -> list[str]:
    """The names that t's binder fields `binds` bind over its body, in binding order."""
    out: list[str] = []
    for n in binds:
        v = getattr(t, n)
        if type(v) is str:
            out.append(v)
        else:
            out.extend(v)
    return out


# Fields alpha_eq compares by plain equality: the non-child data of each leaf
# or graded form. Binders, annotations, `loc` and `Clone.old_idents` are not
# among them, and `Var.name` and `Pack.ident` are compared up to renaming.
_DATA: dict[type, str] = {
    Promote: "grade",
    Share: "grade",
    Uniq: "perm",
    NatLit: "value",
    FloatLit: "value",
    Prim: "name",
    RefVal: "ref",
}


def alpha_eq(a: Term, b: Term, env_a=None, env_b=None) -> bool:
    cls = type(a)
    if type(b) is not cls:
        return False
    if env_a is None:
        env_a, env_b = {}, {}
    if cls is Var:
        return _name_eq(env_a, a.name, env_b, b.name)
    if cls is Pack:
        if not _name_eq(env_a, a.ident, env_b, b.ident):
            return False
    elif cls in _DATA and getattr(a, _DATA[cls]) != getattr(b, _DATA[cls]):
        return False
    shape = _SHAPES[cls]
    # the annotations of unpack and clone mention their own name binders
    if cls is not Unpack and cls is not Clone:
        for n in shape.types:
            if not _ann_eq(getattr(a, n), getattr(b, n)):
                return False
    inner_a, inner_b = env_a, env_b
    if shape.binds:
        xs, ys = _bound_by(a, shape.binds), _bound_by(b, shape.binds)
        if len(xs) != len(ys):
            return False
        inner_a, inner_b = dict(env_a), dict(env_b)
        for x, y in zip(xs, ys):
            inner_a[x] = inner_b[y] = object()
    for n in shape.terms:
        if n == "body":
            if not alpha_eq(a.body, b.body, inner_a, inner_b):
                return False
        elif not alpha_eq(getattr(a, n), getattr(b, n), env_a, env_b):
            return False
    return True


def _name_eq(env_a, n1, env_b, n2) -> bool:
    return env_a.get(n1, ("free", n1)) == env_b.get(n2, ("free", n2))


def _ann_eq(a, b) -> bool:
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return a == b


def free_vars(t: Term) -> set[str]:
    """Free term variables and free name identifiers of a term.

    The set is stored on a node with child terms (see the module docstring):
    callers must not mutate it.
    """
    if (out := t._free) is not None:
        return out
    cls = type(t)
    if cls is Var:
        return {t.name}
    shape = _SHAPES[cls]
    out = {t.ident} if cls is Pack else None
    for n in shape.terms:
        sub = free_vars(getattr(t, n))
        if n == "body" and shape.binds:
            sub = sub.difference(_bound_by(t, shape.binds))
        if sub:
            out = sub if out is None else out | sub
    if out is None:
        out = set()
    if shape.terms:
        t._free = out
    return out


def refs_of(t: Term) -> set[str]:
    """Every resource reference occurring anywhere in the term, stored as in
    `free_vars`."""
    if (out := t._refs) is not None:
        return out
    if type(t) is RefVal:
        return {t.ref}
    terms = _SHAPES[type(t)].terms
    out = set()
    for n in terms:
        out |= refs_of(getattr(t, n))
    if terms:
        t._refs = out
    return out


def bound_names(t: Term) -> set[str]:
    """Every variable and name identifier that some binder inside t binds,
    stored as in `free_vars`."""
    if (out := t._bound) is not None:
        return out
    shape = _SHAPES[type(t)]
    out = set(_bound_by(t, shape.binds))
    for n in shape.terms:
        out |= bound_names(getattr(t, n))
    if shape.terms:
        t._bound = out
    return out


def fresh_name(base: str, avoid: set[str]) -> str:
    """The first `base.N`, N = 1, 2, ..., not in `avoid`: fresh relative to
    the names in scope, so a name depends only on its caller's input."""
    base = base.split(".")[0] or "x"
    n = 1
    while (cand := f"{base}.{n}") in avoid:
        n += 1
    return cand


def names_in(t: Union[Term, Type]) -> set[str]:
    """Every variable and name identifier the term or type t mentions, free or
    bound, its annotations' and `Clone.old_idents` too: the names a binder
    renamed over t must avoid."""
    out = free_vars(t) | bound_names(t) if isinstance(t, Term) else set()
    stack: list = [t]
    while stack:
        node = stack.pop()
        cls = type(node)
        if (shape := _SHAPES.get(cls)) is not None:
            stack += [v for n in shape.terms + shape.types if (v := getattr(node, n)) is not None]
            if cls is Clone:
                out.update(node.old_idents or ())
            continue
        if cls is ResT or cls is NameT:
            out.add(node.ident)
        elif cls is ExistsT:
            out.add(node.binder)
        stack += [getattr(node, n) for n in _TYPE_CHILDREN[cls]]
    return out


def _rebuild(node, **changes):
    """A term or type with some fields replaced; node itself when every new
    value is the old one."""
    for n, v in changes.items():
        if getattr(node, n) is not v:
            break
    else:
        return node
    return type(node)(*[changes[n] if n in changes else getattr(node, n) for n in _FIELDS[type(node)]])


def subst(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution of s for the term variable x."""
    return _subst(t, {x: s}, free_vars(s))


def _subst(t: Term, env: dict[str, Term], fv_s: set[str]) -> Term:
    """Substitute env's terms for their variables in t, renaming each binder
    that would capture one of fv_s. A subterm in which no variable of env
    occurs free is returned as it is, its binders unrenamed."""
    cls = type(t)
    if cls is Var:
        return env.get(t.name, t)
    if env.keys().isdisjoint(free_vars(t)):
        return t
    shape = _SHAPES[cls]
    changes = {}
    inner = env
    names = {}  # renamed name binders (Unpack.ident, Clone.idents), old -> new
    for n in shape.binds:
        old = getattr(t, n)
        if type(old) is str:
            new, inner = _avoid(old, inner, fv_s, t)
            if n == "ident" and new != old:
                names[old] = new
        else:
            renamed = []
            for i in old:
                i2, inner = _avoid(i, inner, fv_s, t)
                renamed.append(i2)
                if i2 != i:
                    names[i] = i2
            new = old if list(old) == renamed else tuple(renamed)
        if new is not old:
            changes[n] = new
    for n in shape.terms:
        old = getattr(t, n)
        # a renamed name binder also binds the body's pack identifiers and
        # annotations: rename them before env brings in the names to avoid
        new = _subst(subst_names(old, names), inner, fv_s) if n == "body" else _subst(old, env, fv_s)
        if new is not old:
            changes[n] = new
    if names and t.bann is not None:
        changes["bann"] = type_subst_names(t.bann, names)
    return _rebuild(t, **changes) if changes else t


def _avoid(binder: str, env: dict[str, Term], avoid: set[str], t: Term):
    """env under `binder`, a binder of the node t, and the name the binder
    takes there: when the binder is in `avoid`, one that no name of t or of
    env's terms can capture or be captured by."""
    env = {k: v for k, v in env.items() if k != binder}
    if binder in avoid:
        nb = fresh_name(binder, avoid.union(env, names_in(t), *map(free_vars, env.values())))
        env[binder] = Var(nb)
        return nb, env
    return binder, env


def subst_names(t: Term, env: dict[str, str], perms=_NOTHING) -> Term:
    """Rename free name identifiers in a term (and in its type annotations),
    renaming each name binder that would capture one of env's new names (see
    `_unclash`), as `subst` renames a binder. The permission variables in
    `perms` are replaced in the annotations in the same pass."""
    if not env and not perms:
        return t
    cls = type(t)
    changes = {}
    inner = env
    if cls is Pack:
        changes["ident"] = env.get(t.ident, t.ident)
    elif cls is Unpack:
        inner, (ident,) = _unclash({k: v for k, v in env.items() if k != t.ident}, (t.ident,), t)
        if ident != t.ident:
            changes["ident"] = ident
    elif cls is Clone:
        inner, idents = _unclash({k: v for k, v in env.items() if k not in t.idents}, t.idents, t)
        if idents != t.idents:
            changes["idents"] = idents
        if t.old_idents:
            changes["old_idents"] = tuple(env.get(i, i) for i in t.old_idents)
    shape = _SHAPES[cls]
    for n in shape.terms:
        old = getattr(t, n)
        new = subst_names(old, inner if n == "body" else env, perms)
        if new is not old:
            changes[n] = new
    # every annotation lies under the node's name binders
    for n in shape.types:
        old = getattr(t, n)
        if old is not None:
            new = type_subst_names(old, inner, perms)
            if new is not old:
                changes[n] = new
    return _rebuild(t, **changes) if changes else t


def _unclash(env: dict[str, str], binders: tuple[str, ...], node) -> tuple[dict[str, str], tuple[str, ...]]:
    """env under the name binders `binders` of `node`, a term or a type, and
    the names the binders take there. A binder that is one of env's new names
    would capture it where env renames a name of node, so it takes a name
    that no name of node or env can capture or be captured by."""
    new = set(env.values())
    if new.isdisjoint(binders) or env.keys().isdisjoint(names := names_in(node)):
        return env, binders
    avoid = names | new | env.keys()
    env, out = dict(env), []
    for b in binders:
        if b in new:
            env[b] = b = fresh_name(b, avoid)
            avoid.add(b)
        out.append(b)
    return env, tuple(out)


def rename_refs(theta: dict[str, str], t: Term) -> Term:
    """Replace every reference in dom(theta) by its image."""
    if theta.keys().isdisjoint(refs_of(t)):
        return t
    if type(t) is RefVal:
        return _rebuild(t, ref=theta[t.ref])
    changes = {}
    for n in _SHAPES[type(t)].terms:
        old = getattr(t, n)
        new = rename_refs(theta, old)
        if new is not old:
            changes[n] = new
    return _rebuild(t, **changes) if changes else t


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
    """Whether t is a normal form under the machine's reduction rules.

    The cases are tested in measured-frequency order (RefVal, Uniq, Pair and
    App lead on `props`). The order changes only speed: the term classes are
    disjoint, so each term meets the same case in any order.
    """
    match t:
        case RefVal():
            return True
        case Uniq(b, _):
            return is_value(b)
        case Pair(l, r):
            return is_value(l) and is_value(r)
        case App():
            spine = prim_spine(t)
            if spine is None:
                return False
            name, args = spine
            arity = PRIMITIVES.get(name)
            return arity is not None and len(args) < arity and all(is_value(a) for a in args)
        case FloatLit() | NatLit() | Abs() | UnitVal() | Prim():
            return True
        case Promote(b, _):
            return is_value(b)
        case Pack(_, b):
            return is_value(b)
        case _:
            # unborrow t always reduces once its body does, so it is not a value
            return False


def strip_meta(t: Term) -> Term:
    """Drop elaboration metadata (annotations and box grades) for comparisons."""
    shape = _SHAPES[type(t)]
    changes = {}
    for n in shape.terms:
        old = getattr(t, n)
        new = strip_meta(old)
        if new is not old:
            changes[n] = new
    for n in (*shape.types, "grade", "old_idents"):
        if getattr(t, n, None) is not None:
            changes[n] = None
    return _rebuild(t, **changes) if changes else t
