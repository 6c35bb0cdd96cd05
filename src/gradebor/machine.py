"""Call-by-value heap machine.

Configurations pair a three-sorted heap (variables, permission-annotated
references, resources) with a term under reduction. `step` applies exactly
one rule; its rule path is the chain of congruences down to the leaf rule,
joined with '/'.

The machine reduces and records; it never types a term. A `newRef` cell
stores the payload type that elaboration put on its head (`Prim.ann`, None
for a term that was never elaborated). Each `readRef` lowers the grade of
that type and of the stored box by one, as the checker's rule does, and
`swapRef` keeps the type, which the checker requires the new value to
have. A recording `eval` returns a `Trace` that holds each configuration
once, plus the leaf rule of each step; a run that does not record keeps
only its step count and final configuration.

Heap cells are immutable values: a step never changes a cell, it puts a new
one under the entry's name. A variable read stores the variable at its lower
grade, `share` stores references at permission 0, and `writeArray`,
`readRef` and `swapRef` store a new resource cell. A heap snapshot copies
the three dicts and shares their cells, so consecutive snapshots share every
cell that the step between them did not replace.

Evaluation refocuses (Danvy & Nielsen, "Refocusing in reduction semantics",
BRICS RS-04-26) instead of searching for each redex from the root: the
machine keeps the evaluation context as a chain of frames, contracts the
redex in its hole, and searches on from the contractum, leaving frames
whose node has become a value and entering the next position that holds a
non-value. A step then costs the distance between consecutive redexes, not
the depth of the term. The frames are persistent, each linked to the one
around it (Huet, "The Zipper", JFP 1997), so a recording run stores a
configuration as its innermost frame, the term in the hole and a heap
snapshot (`Config`), and consecutive configurations share every frame above
the point where they differ. No run plugs the contractum back into a whole
term at every step. A step's rule path is read from the frames of its
configuration when asked for, and `Trace.to_jsonl` prints each frame once
per context it enters, not once per line.

Each rule is stated once. `_CONGRUENCES` names each evaluation position by
its child field; the plug that fills it is derived at import from
`syntax._FIELDS`, so no field order is restated here. The five binding
rules bind through `_bind`.

After every contraction, `eval` drops each variable that the run bound,
whose grade is exactly zero and that nothing reaches, as the usage-aware
semantics of Choudhury et al. (POPL 2021) discards 0-graded bindings: such
a variable can never be read again, and a heap check that sees no demand
on it discharges it anyway. The roots are the free variables of the
contractum, of every frame node's children other than the hole, and of
every stored reference value; reach then closes over the values of the
variables it meets. The roots come from the frames, never from the whole
term, which no run builds: the same pass runs in both modes.
Variables of the heap passed to `eval`, variables of nonzero grade,
references and resources are never dropped. Variables are named from a
per-run counter on the heap, so a dropped name is never bound again.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from types import MappingProxyType
from typing import Callable, Iterator, NamedTuple, Optional

from .grades import Grade, STAR, WHOLE, Semiring, grade_mul, grade_residual, perm_add, perm_half
from . import grades as G
from . import syntax as S
from .parser import print_around, print_term, print_type
from .syntax import (
    Abs, App, Clone, FloatLit, Join, LetBox, LetPair, LetUnit, NatLit, Pack,
    Pair, Prim, Promote, Pull, Push, RefVal, Share, Split, Term, Type, Unborrow,
    Uniq, UnitVal, Unpack, Var, WithBorrow, free_vars, is_value,
    prim_spine, refs_of, rename_refs, subst, subst_names,
)


class EvalError(Exception):
    pass


class StuckTerm(EvalError):
    pass


class GradeUnderflow(EvalError):
    pass


class MissingResource(EvalError):
    pass


class FuelExhausted(EvalError):
    pass


class VarCell(NamedTuple):
    grade: Grade
    value: Term
    ty: Optional[Type]


class RefCell(NamedTuple):
    perm: Fraction  # heap annotations admit zero, unlike Permission
    ident: str


class ArrRes(NamedTuple):
    # read-only, so every empty array may share it
    items: Mapping[int, float] = MappingProxyType({})
    is_array = True

    def show(self) -> str:
        body = "".join(f"[{n}]={v}" for n, v in sorted(self.items.items()))
        return "init" + body


class RefRes(NamedTuple):
    value: Term
    ty: Optional[Type]
    is_array = False

    def show(self) -> str:
        ty = f" : {print_type(self.ty)}" if self.ty is not None else ""
        return f"|- {print_term(self.value)}{ty}"


@dataclass
class Heap:
    """The three sorts of heap entries, each a dict from name to cell, and
    the counters that name fresh entries. A cell is never changed, only
    replaced: a step that writes an entry puts a new cell under its name."""

    vars: dict[str, VarCell] = field(default_factory=dict)
    refs: dict[str, RefCell] = field(default_factory=dict)
    resources: dict[str, object] = field(default_factory=dict)
    counter: int = 0  # numbers references and identifiers
    var_counter: int = 0  # numbers variables

    def fresh_ref(self) -> str:
        self.counter += 1
        return f"ref{self.counter}"

    def fresh_ident(self) -> str:
        self.counter += 1
        return f"id{self.counter}"

    def fresh_var(self, base: str) -> str:
        base = base.split(".")[0] or "x"
        while True:
            self.var_counter += 1
            if (cand := f"{base}.{self.var_counter}") not in self.vars:
                return cand

    def snapshot(self) -> "Heap":
        """A copy of the three dicts that shares every cell, since no cell is
        ever changed. Each copy is built by a comprehension, which sizes its
        table to the entries: `dict(d)` and `d.copy()` would keep the table
        that deletions from `d` left larger than its entries need."""
        return Heap(
            {x: c for x, c in self.vars.items()},
            {r: c for r, c in self.refs.items()},
            {i: c for i, c in self.resources.items()},
            self.counter,
            self.var_counter,
        )

    def names(self) -> set[str]:
        return set(self.vars) | set(self.refs) | set(self.resources)

    def cells(self) -> Iterator[tuple[str, object]]:
        """Every (name, cell) pair in output order: variables, references, resources."""
        return chain(self.vars.items(), self.refs.items(), self.resources.items())

    def to_json(self) -> list[dict]:
        return [_entry_json(name, cell) for name, cell in self.cells()]


def _entry_json(name: str, cell) -> dict:
    """The JSON record of one heap entry; the class of its cell gives its sort."""
    if type(cell) is VarCell:
        return {
            "sort": "var",
            "name": name,
            "grade": str(cell.grade),
            "value": print_term(cell.value),
            "type": print_type(cell.ty) if cell.ty is not None else None,
        }
    if type(cell) is RefCell:
        return {"sort": "ref", "name": name, "perm": str(cell.perm), "id": cell.ident}
    return {"sort": "res", "name": name, "value": cell.show()}


# ---------------------------------------------------------------------------
# Steps and traces


class Config(NamedTuple):
    """A configuration: the term `hole` in the hole of the evaluation context
    whose innermost frame is `frame`, and the heap. With `frame` None, `hole`
    is the whole term."""

    frame: Optional["Frame"]
    hole: Term
    heap: Heap

    def term(self) -> Term:
        """The whole term, built anew on every call."""
        return plug(self.frame, self.hole)


@dataclass
class Trace:
    """A run at grade `grade`: the leaf rule of each recorded step, the
    configurations, and how many steps the run took.

    A recorded run keeps every configuration once, the initial one first:
    step k leads from configuration k to configuration k + 1. Configuration
    0 holds the first redex in its context, and configuration k + 1 the
    contractum of step k in the context of its redex, so consecutive
    configurations share the frames above the point where the step and the
    search for the next redex changed the term (see `Config`). Step k's rule
    path is the congruences of that context, read from
    `configs[k + 1].frame`, then `leaves[k]`; `steps` joins it when read. A
    trace built by hand from `(term, heap)` pairs holds each term whole, in
    an empty context, so each of its paths is its leaf. A run that did not
    record has no steps and one configuration, its value and live heap."""

    grade: Grade
    leaves: list[str]
    configs: list[Config]
    step_count: int

    def __post_init__(self) -> None:
        self.configs = [c if type(c) is Config else Config(None, *c) for c in self.configs]

    @property
    def steps(self) -> "RulePaths":
        """The rule path of each recorded step, joined when read."""
        return RulePaths(self)

    def configurations(self) -> list[tuple[Term, Heap]]:
        """Every configuration as its whole term and heap; the terms are
        built anew on every call."""
        return [(c.term(), c.heap) for c in self.configs]

    @property
    def final_term(self) -> Term:
        return self.configs[-1].term()

    @property
    def final_heap(self) -> Heap:
        return self.configs[-1].heap

    def to_jsonl(self) -> str:
        """One JSON object per step, then one for the final configuration.

        A step line is `{"step", "rule", "grade", "term", "heap"}` for the
        configuration after the step; the last line is `{"step", "value",
        "heap"}`; "heap" is `Heap.to_json()`. Each line is the `json.dumps`
        of its whole record. No line's term is built: `_printed` prints each
        frame of a context once and each hole in its place.
        """
        grade = str(self.grade)
        printed = _printed(self.configs)
        # configuration 0 opens the first context; with no step, it is the final one
        term, _ = next(printed)
        lines = []
        for k, (leaf, c, (term, congruences)) in enumerate(zip(self.leaves, self.configs[1:], printed)):
            rule = "/".join([*congruences, leaf])
            lines.append(json.dumps({"step": k, "rule": rule, "grade": grade, "term": term, "heap": c.heap.to_json()}))
        final = {"step": len(self.leaves), "value": term, "heap": self.final_heap.to_json()}
        lines.append(json.dumps(final))
        return "\n".join(lines)


class RulePaths(Sequence):
    """The rule paths of a trace's steps, each joined from its frames when
    read. The length is the number of leaves; no path is built for it."""

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.leaves)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = range(len(self))[k]
        return _rule(self._trace.configs[k + 1].frame, self._trace.leaves[k])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, RulePaths)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


def _printed(configs: list[Config]) -> Iterator[tuple[str, list[str]]]:
    """Each configuration's whole term as `print_term` prints it, and the
    congruence names of its context from the root.

    The contexts' frames are kept on a stack, each printed once, by
    `print_around`, as the text on either side of its hole; a frame is
    printed at the precedence of its parent's hole, 0 at the root. For each
    configuration the stack is cut back to the frame it shares with the
    previous one and the new frames are pushed; a line is then the left
    texts, the hole printed at its position's precedence, and the right
    texts. The state is the current context's frames, never every frame of
    the trace. The yielded name list is the stack's, valid until the next
    configuration is read."""
    lefts: list[str] = []
    rights: list[str] = []  # innermost last
    precs: list[int] = []  # each hole's precedence
    names: list[str] = []
    previous: Optional[Frame] = None
    for c in configs:
        shared = shared_frame(previous, c.frame)
        kept = shared.depth if shared is not None else 0
        del lefts[kept:], rights[kept:], precs[kept:], names[kept:]
        new = []
        f = c.frame
        while f is not shared:
            new.append(f)
            f = f.parent
        for f in reversed(new):
            hole, name = _CONGRUENCES[type(f.node)][f.pos]
            left, right, prec = print_around(f.node, hole, precs[-1] if precs else 0)
            lefts.append(left)
            rights.append(right)
            precs.append(prec)
            names.append(name)
        previous = c.frame
        hole = print_term(c.hole, precs[-1] if precs else 0)
        yield "".join([*lefts, hole, *reversed(rights)]), names


# ---------------------------------------------------------------------------
# Evaluation contexts

# The evaluation positions of each congruence rule, in the order the machine
# tries them: (child field, congruence name in rule paths).
_CONGRUENCES: dict[type, tuple[tuple[str, str], ...]] = {
    App: (("fn", "appR"), ("arg", "appL")),
    Pair: (("left", "congPairL"), ("right", "congPairR")),
    LetPair: (("rhs", "congPairElim"),),
    LetUnit: (("rhs", "congUnitElim"),),
    Promote: (("body", "congPromotion"),),
    LetBox: (("rhs", "congBoxElim"),),
    Pack: (("body", "congPack"),),
    Unpack: (("rhs", "congUnpack"),),
    WithBorrow: (("fn", "congWithBorrowL"), ("arg", "congWithBorrowR")),
    Unborrow: (("body", "congUnborrow"),),
    Share: (("body", "congShare"),),
    Clone: (("rhs", "congClone"),),
    Split: (("body", "congSplit"),),
    Join: (("body", "congJoin"),),
    Push: (("body", "congPush"),),
    Pull: (("body", "congPull"),),
}


def _plugger(cls: type, hole: str) -> Callable[[Term, Term], Term]:
    """plug(p, t): p, of class cls, rebuilt with t in the field `hole`.

    The constructor call is generated from the class's fields, as
    `dataclasses` generates `__init__`, so it costs what a hand-written call
    does: `_refocus` plugs every value it leaves into its frame."""
    args = ", ".join("t" if n == hole else f"p.{n}" for n in S._FIELDS[cls])
    code = compile(f"lambda p, t: cls({args})", f"<plug {cls.__name__}.{hole}>", "eval")
    return eval(code, {"cls": cls})


# Each position's plug, indexed as in _CONGRUENCES.
_PLUGS: dict[type, tuple[Callable[[Term, Term], Term], ...]] = {
    cls: tuple(_plugger(cls, hole) for hole, _ in positions) for cls, positions in _CONGRUENCES.items()
}

# Terms that are values once every evaluation position holds a value.
_VALUE_FORMERS = (Pair, Promote, Pack, Abs, UnitVal, NatLit, FloatLit, Prim, RefVal)


class Frame:
    """One frame of an evaluation context, linked to the frame around it.

    `node` is the term whose evaluation position `pos` (an index into its
    class's `_CONGRUENCES`) is the hole; its other children are those of
    every configuration that holds the frame, while its child in the hole is
    the one it had when the search entered it. `grade` is the grade at the
    node, `parent` the enclosing frame (None at the root) and `depth` the
    number of frames from the root to this one. A frame is never changed once
    built.
    """

    __slots__ = ("node", "pos", "grade", "parent", "depth")

    def __init__(self, node: Term, pos: int, grade: Grade, parent: Optional["Frame"]):
        self.node, self.pos, self.grade, self.parent = node, pos, grade, parent
        self.depth = parent.depth + 1 if parent is not None else 1

    @property
    def hole(self) -> str:
        """The child field of `node` that is the hole."""
        return _CONGRUENCES[type(self.node)][self.pos][0]

    def plug(self, t: Term) -> Term:
        """`node` rebuilt with t in the hole."""
        return _PLUGS[type(self.node)][self.pos](self.node, t)


def plug(frame: Optional[Frame], t: Term, stop: Optional[Frame] = None) -> Term:
    """t plugged into the hole of `frame` and on through the frames around
    it, up to `stop` (not included): the term in the hole of `stop`, or the
    whole term when `stop` is None."""
    while frame is not stop:
        t = _PLUGS[type(frame.node)][frame.pos](frame.node, t)
        frame = frame.parent
    return t


def shared_frame(a: Optional[Frame], b: Optional[Frame]) -> Optional[Frame]:
    """The deepest frame of both the context ending at `a` and the one ending
    at `b`, None when they share none; found by walking up from both, so it
    costs the number of frames that either context does not share."""
    while a is not b:
        if a is None or (b is not None and b.depth > a.depth):
            a, b = b, a
        a = a.parent
    return a


def _rule(frame: Optional[Frame], leaf: str) -> str:
    """The rule path: the congruences from the root down to the hole of
    `frame`, then the leaf rule."""
    names = [leaf]
    while frame is not None:
        names.append(_CONGRUENCES[type(frame.node)][frame.pos][1])
        frame = frame.parent
    return "/".join(reversed(names))


class Machine:
    """Small-step reducer over configurations.

    `mutate_split` disables the permission halving performed by splitRef in
    the heap; it exists so the metatheory suites can demonstrate they detect
    a broken interpreter.
    """

    def __init__(self, ring: Semiring, mutate_split: bool = False):
        self.ring = ring
        self.mutate_split = mutate_split

    # -- public API -----------------------------------------------------------

    def step(self, heap: Heap, t: Term, s: Grade) -> Optional[tuple[Term, str]]:
        """Apply one reduction rule in place; None when t is a value.

        Unlike `eval`, a step collects nothing: every variable it binds
        stays in the heap, whatever its grade."""
        redex, g, frame, found = self._refocus(t, s, None)
        if not found:
            return None
        c, leaf = self._contract(heap, redex, g)
        return plug(frame, c), _rule(frame, leaf)

    def eval(self, heap: Heap, t: Term, s: Grade, fuel: int = 10000, record: bool = True) -> tuple[Term, Trace]:
        """Reduce t at grade s to a value, in place on heap, dropping the
        unreachable grade-0 variables the run bound after every step (see
        the module docstring)."""
        leaves: list[str] = []
        own = set(heap.vars)  # the caller's variables, never dropped
        zeros: set[str] = set()  # variables the run bound that hold grade 0
        zero = self.ring.zero
        redex, g, frame, found = self._refocus(t, s, None)
        configs = [Config(frame, redex, heap.snapshot())] if record else []
        k = 0
        while found:
            if fuel <= 0:
                raise FuelExhausted(f"no fuel left after {k} steps")
            fuel -= 1
            n = len(heap.vars)
            c, leaf = self._contract(heap, redex, g)
            # a contraction only appends variables, or replaces the cell of
            # the variable it reads with one of lower grade
            changed = list(islice(reversed(heap.vars), len(heap.vars) - n))
            if type(redex) is Var:
                changed.append(redex.name)
            zeros.update(x for x in changed if x not in own and heap.vars[x].grade == zero)
            if zeros:
                _collect(heap, frame, c, zeros)
            if record:
                leaves.append(leaf)
                configs.append(Config(frame, c, heap.snapshot()))
            redex, g, frame, found = self._refocus(c, g, frame)
            k += 1
        if not record:
            return redex, Trace(s, leaves, [(redex, heap)], k)
        trace = Trace(s, leaves, configs, k)
        return trace.final_term, trace

    # -- finding the redex ------------------------------------------------------

    def _refocus(self, t: Term, s: Grade, frame: Optional[Frame]) -> tuple[Term, Grade, Optional[Frame], bool]:
        """Find the next redex, starting at t, at grade s, in the hole of `frame`.

        The search enters the first evaluation position of t that holds a
        non-value, pushing a frame. When every position holds a value, t is
        either the redex or a value; a value is plugged into the innermost
        frame, which is popped, and the search goes on at that frame's node
        from the position after its hole. Returns (redex, grade at the redex,
        its innermost frame, True), or, once no frame is left and the whole
        term is a value, (value, grade, None, False).
        """
        start = 0
        while True:
            cls = type(t)
            spine = prim_spine(t) if cls is App else None
            if spine is not None:
                name, args = spine
                if len(args) == S.PRIMITIVES[name] and all(is_value(a) for a in args):
                    return t, s, frame, True
            positions = _CONGRUENCES.get(cls, ())
            for i in range(start, len(positions)):
                child = getattr(t, positions[i][0])
                if not is_value(child):
                    frame = Frame(t, i, s, frame)
                    if cls is Promote:
                        s = grade_mul(s, t.grade if t.grade is not None else self.ring.one)
                    t, start = child, 0
                    break
            else:
                # every evaluation position holds a value: a partial primitive
                # application is a value, and so is a value former
                if not (spine is not None or isinstance(t, _VALUE_FORMERS) or (cls is Uniq and is_value(t.body))):
                    return t, s, frame, True
                if frame is None:
                    return t, s, None, False
                t, start, s = frame.plug(t), frame.pos + 1, frame.grade
                frame = frame.parent

    # -- contraction ------------------------------------------------------------

    def _contract(self, heap: Heap, t: Term, s: Grade) -> tuple[Term, str]:
        """Apply the rule for the redex t at grade s; returns the contractum
        and the rule's name."""
        match t:
            case Var(x):
                cell = heap.vars.get(x)
                if cell is None:
                    raise StuckTerm(f"variable {x!r} is not bound in the heap")
                residual = grade_residual(cell.grade, s)
                if residual is None:
                    raise GradeUnderflow(f"variable {x!r} has grade {cell.grade}, cannot consume {s}")
                heap.vars[x] = VarCell(residual, cell.value, cell.ty)
                return cell.value, "var"

            case App():
                # a redex with a primitive head is a saturated application
                spine = prim_spine(t)
                if spine is not None:
                    return self._prim_step(heap, t, *spine)
                if isinstance(t.fn, Abs):
                    return _bind(heap, t.fn.param, s, t.arg, t.fn.ann, t.fn.body), "beta"
                raise StuckTerm(f"cannot apply {t.fn!r}")

            case LetPair(x, y, rhs, body):
                if not isinstance(rhs, Pair):
                    raise StuckTerm(f"let (x, y) scrutinee is not a pair: {rhs!r}")
                body = _bind(heap, x, s, rhs.left, t.lann, body)
                return _bind(heap, y, s, rhs.right, t.rann, body), "pairBeta"

            case LetUnit(rhs, body):
                if not isinstance(rhs, UnitVal):
                    raise StuckTerm(f"let () scrutinee is not unit: {rhs!r}")
                return body, "unitBeta"

            case LetBox(x, rhs, body, ann):
                if not isinstance(rhs, Promote):
                    raise StuckTerm(f"let [x] scrutinee is not a box: {rhs!r}")
                r = rhs.grade
                if r is None and ann is not None:
                    r = ann.grade
                if r is None:
                    r = self.ring.one
                ty = ann.body if ann is not None else None
                return _bind(heap, x, grade_mul(s, r), rhs.body, ty, body), "betaBox"

            case Unpack(i, x, rhs, body):
                if not isinstance(rhs, Pack):
                    raise StuckTerm(f"unpack scrutinee is not packed: {rhs!r}")
                ty = S.type_subst_names(t.bann, {i: rhs.ident}) if t.bann is not None else None
                return _bind(heap, x, s, rhs.body, ty, subst_names(body, {i: rhs.ident})), "existentialBeta"

            case WithBorrow(fn, arg):
                if not isinstance(fn, Abs):
                    raise StuckTerm(f"withBorrow function is not an abstraction: {fn!r}")
                if not isinstance(arg, Uniq):
                    raise StuckTerm(f"withBorrow argument is not a unique value: {arg!r}")
                borrowed = Uniq(arg.body, WHOLE)
                return Unborrow(subst(fn.body, fn.param, borrowed)), "withBorrowBeta"

            case Unborrow(body):
                if not isinstance(body, Uniq):
                    raise StuckTerm(f"unborrow applied to a non-borrow: {body!r}")
                return Uniq(body.body, STAR), "unborrowBorrow"

            case Share(body, grade):
                if not isinstance(body, Uniq):
                    raise StuckTerm(f"share applied to a non-unique value: {body!r}")
                for ref in refs_of(body.body):
                    cell = heap.refs.get(ref)
                    if cell is None:
                        raise MissingResource(f"shared value references missing {ref}")
                    heap.refs[ref] = RefCell(Fraction(0), cell.ident)
                return Promote(body.body, grade if grade is not None else self.ring.one), "share"

            case Clone(x, idents, rhs, body):
                if not isinstance(rhs, Promote):
                    raise StuckTerm(f"clone applied to a non-box: {rhs!r}")
                return self._copy_beta(heap, t, rhs.body, s), "copyBeta"

            case Split(body):
                if not isinstance(body, Uniq):
                    raise StuckTerm(f"split applied to a non-borrow: {body!r}")
                if body.perm.is_star:
                    raise StuckTerm("split applied to an owned value")
                half = perm_half(body.perm)
                left, right = self._split_value(heap, body.body)
                rule = "splitRef" if isinstance(body.body, RefVal) else "splitPair"
                return Pair(Uniq(left, half), Uniq(right, half)), rule

            case Join(body):
                if not (isinstance(body, Pair) and isinstance(body.left, Uniq) and isinstance(body.right, Uniq)):
                    raise StuckTerm(f"join applied to a non-pair of borrows: {body!r}")
                try:
                    p = perm_add(body.left.perm, body.right.perm)
                except G.GradeError as e:
                    raise StuckTerm(f"join: {e}")
                joined = self._join_value(heap, body.left.body, body.right.body)
                rule = "joinRef" if isinstance(joined, RefVal) else "joinPair"
                return Uniq(joined, p), rule

            case Push(body):
                if not (isinstance(body, Uniq) and isinstance(body.body, Pair)):
                    raise StuckTerm(f"push applied to a non-product: {body!r}")
                rule = "pushUnique" if body.perm.is_star else "pushBorrow"
                return Pair(Uniq(body.body.left, body.perm), Uniq(body.body.right, body.perm)), rule

            case Pull(body):
                if not (isinstance(body, Pair) and isinstance(body.left, Uniq) and isinstance(body.right, Uniq)):
                    raise StuckTerm(f"pull applied to a non-pair of borrows: {body!r}")
                if body.left.perm != body.right.perm:
                    raise StuckTerm("pull on components at different permissions")
                rule = "pullUnique" if body.left.perm.is_star else "pullBorrow"
                return Uniq(Pair(body.left.body, body.right.body), body.left.perm), rule

            case _:
                raise StuckTerm(f"no rule applies to {t!r}")

    # -- resource primitives ----------------------------------------------------

    def _prim_step(self, heap: Heap, t: App, name: str, args: list[Term]) -> tuple[Term, str]:
        if name == "newArray" or name == "newRef":
            ident = heap.fresh_ident()
            ref = heap.fresh_ref()
            # a newRef cell stores the payload type that elaboration put on
            # the head, or None
            heap.resources[ident] = ArrRes() if name == "newArray" else RefRes(args[0], t.fn.ann)
            heap.refs[ref] = RefCell(Fraction(1), ident)
            return Pack(ident, Uniq(RefVal(ref), STAR)), name

        u = args[0]
        if not (isinstance(u, Uniq) and isinstance(u.body, RefVal)):
            raise StuckTerm(f"{name} applied to a non-reference: {u!r}")
        ref = u.body.ref
        cell = heap.refs.get(ref)
        if cell is None:
            raise MissingResource(f"{name}: reference {ref} is not in the heap")
        res = heap.resources.get(cell.ident)
        if res is None:
            raise MissingResource(f"{name}: resource {cell.ident} has been deleted")

        if name == "readArray":
            idx = _nat_arg(args[1], name)
            # unwritten indices read as zero; sizes are not tracked
            return Pair(FloatLit(res.items.get(idx, 0.0)), u), "readArray"
        if name == "writeArray":
            idx = _nat_arg(args[1], name)
            heap.resources[cell.ident] = ArrRes({**res.items, idx: _float_arg(args[2], name)})
            return u, "writeArray"
        if name == "deleteArray" or name == "deleteRef":
            del heap.refs[ref]
            del heap.resources[cell.ident]
            return (UnitVal() if name == "deleteArray" else res.value), name
        if name == "readRef":
            box = res.value
            if not isinstance(box, Promote):
                raise StuckTerm("readRef on a cell whose payload is not boxed")
            # mirror the static accounting: each read lowers the payload
            # grade by one, in the stored type and in the stored box alike
            ty, value = res.ty, box
            if isinstance(ty, S.Box) and (lowered := G.grade_minus_one(ty.grade)) is not None:
                ty = S.Box(lowered, ty.body)
            if box.grade is not None and (lowered := G.grade_minus_one(box.grade)) is not None:
                value = Promote(box.body, lowered, box.loc)
            heap.resources[cell.ident] = RefRes(value, ty)
            return Pair(box.body, u), "readRef"
        if name == "swapRef":
            # the new value has the stored payload type, so res.ty stays
            heap.resources[cell.ident] = RefRes(args[1], res.ty)
            return Pair(res.value, u), "swapRef"
        raise StuckTerm(f"unknown primitive {name}")

    # -- split/join on nested values ---------------------------------------------

    def _split_value(self, heap: Heap, w: Term) -> tuple[Term, Term]:
        match w:
            case RefVal(r):
                cell = heap.refs.pop(r, None)
                if cell is None:
                    raise MissingResource(f"split: reference {r} is not in the heap")
                half = cell.perm if self.mutate_split else cell.perm / 2
                r1, r2 = heap.fresh_ref(), heap.fresh_ref()
                heap.refs[r1] = RefCell(half, cell.ident)
                heap.refs[r2] = RefCell(half, cell.ident)
                return RefVal(r1), RefVal(r2)
            case Pair(a, b):
                a1, a2 = self._split_value(heap, a)
                b1, b2 = self._split_value(heap, b)
                return Pair(a1, b1), Pair(a2, b2)
            case _:
                raise StuckTerm(f"cannot split the value {w!r}")

    def _join_value(self, heap: Heap, w1: Term, w2: Term) -> Term:
        match (w1, w2):
            case (RefVal(r1), RefVal(r2)):
                c1 = heap.refs.pop(r1, None)
                c2 = heap.refs.pop(r2, None)
                if c1 is None or c2 is None:
                    raise MissingResource("join: reference is not in the heap")
                if c1.ident != c2.ident:
                    raise StuckTerm("join of references to different resources")
                r3 = heap.fresh_ref()
                heap.refs[r3] = RefCell(c1.perm + c2.perm, c1.ident)
                return RefVal(r3)
            case (Pair(a1, b1), Pair(a2, b2)):
                return Pair(self._join_value(heap, a1, a2), self._join_value(heap, b1, b2))
            case _:
                raise StuckTerm(f"cannot join the values {w1!r} and {w2!r}")

    # -- clone -------------------------------------------------------------------

    def _copy_beta(self, heap: Heap, t: Clone, w: Term, s: Grade) -> Term:
        # Close the fragment over references reachable through stored values.
        # Identifiers are discovered depth-first through each reference's
        # cell, mirroring the left-to-right walk of the payload type that
        # fixed the order of the surface binders.
        seen_refs: list[str] = []
        idents: list[str] = []

        def discover(value: Term) -> None:
            for ref in _ref_order(value):
                if ref in seen_refs:
                    continue
                seen_refs.append(ref)
                cell = heap.refs.get(ref)
                if cell is None:
                    raise MissingResource(f"clone: reference {ref} is not in the heap")
                res = heap.resources.get(cell.ident)
                if res is None:
                    raise MissingResource(f"clone: resource {cell.ident} has been deleted")
                if cell.ident not in idents:
                    idents.append(cell.ident)
                    if not res.is_array:
                        discover(res.value)

        discover(w)
        # Copy the fragment into the heap under fresh names, identifiers in
        # discovery order and then references. Discovery put every reached
        # reference's resource and every stored value's references in the
        # fragment, so it is closed under both renamings. Each copied
        # reference carries the whole permission; an array copy is the
        # original's cell, which no write changes.
        ident_map = {ident: heap.fresh_ident() for ident in idents}
        theta = {ref: heap.fresh_ref() for ref in seen_refs}
        for ident in idents:
            res = heap.resources[ident]
            if res.is_array:
                heap.resources[ident_map[ident]] = res
            else:
                ty = S.type_subst_names(res.ty, ident_map) if res.ty is not None else None
                heap.resources[ident_map[ident]] = RefRes(rename_refs(theta, res.value), ty)
        for ref in seen_refs:
            heap.refs[theta[ref]] = RefCell(Fraction(1), ident_map[heap.refs[ref].ident])
        # surface identifiers map onto the fresh copies of the payload type's
        # identifiers; unelaborated terms fall back to discovery order
        olds = t.old_idents if t.old_idents is not None else tuple(idents)
        if len(t.idents) != len(olds):
            raise StuckTerm(f"clone binds {len(t.idents)} identifiers, the payload carries {len(olds)}")
        name_env = {}
        for surf, old in zip(t.idents, olds):
            if old in ident_map:
                name_env[surf] = ident_map[old]
            else:
                # a type-level identifier with no reachable resource in the
                # value (e.g. only mentioned by a stored function's domain)
                name_env[surf] = heap.fresh_ident()
        ty = S.type_subst_names(t.bann, name_env) if t.bann is not None else None
        return _bind(heap, t.binder, s, Uniq(rename_refs(theta, w), STAR), ty, subst_names(t.body, name_env))


def _bind(heap: Heap, x: str, grade: Grade, value: Term, ty: Optional[Type], body: Term) -> Term:
    """Bind a fresh variable for x to value at grade, of type ty, in the
    heap; returns body with the fresh variable substituted for x."""
    fresh = heap.fresh_var(x)
    heap.vars[fresh] = VarCell(grade, value, ty)
    return subst(body, x, Var(fresh))


def _collect(heap: Heap, frame: Optional[Frame], c: Term, zeros: set[str]) -> None:
    """Drop from the heap, and from `zeros`, each variable of `zeros` that
    nothing reaches from the term `c` plugged into the context ending at
    `frame`.

    The roots are the free variables of c, of each frame node's children
    other than the hole (a body's less the node's binders, which never
    scope over the hole), and of every stored reference value; a variable
    reached adds the free variables of its value, whatever its grade.
    """
    cells = heap.vars
    roots = [free_vars(c)]
    while frame is not None:
        node = frame.node
        shape = S._SHAPES[type(node)]
        hole = frame.hole
        for n in shape.terms:
            if n != hole:
                fv = free_vars(getattr(node, n))
                roots.append(fv.difference(S._bound_by(node, shape.binds)) if n == "body" and shape.binds else fv)
        frame = frame.parent
    roots.extend(free_vars(res.value) for res in heap.resources.values() if not res.is_array)
    todo = [x for fv in roots for x in fv if x in cells]
    reached: set[str] = set()
    while todo:
        x = todo.pop()
        if x not in reached:
            reached.add(x)
            todo.extend(y for y in free_vars(cells[x].value) if y in cells)
    for x in zeros - reached:
        del cells[x]
    zeros &= reached


def _ref_order(t: Term, out: Optional[dict[str, None]] = None) -> dict[str, None]:
    """The references of t, each once, in depth-first order, as the keys of a
    dict; `out` is the recursion's, the references found so far."""
    if out is None:
        out = {}
    if type(t) is RefVal:
        out[t.ref] = None
    for n in S._SHAPES[type(t)].terms:
        _ref_order(getattr(t, n), out)
    return out


def _nat_arg(t: Term, name: str) -> int:
    if not isinstance(t, NatLit):
        raise StuckTerm(f"{name} index is not a natural number: {t!r}")
    return t.value


def _float_arg(t: Term, name: str) -> float:
    if not isinstance(t, FloatLit):
        raise StuckTerm(f"{name} value is not a float: {t!r}")
    return t.value
