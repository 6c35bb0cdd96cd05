"""Concrete surface syntax: lexer, parser, and pretty printer.

Programs are `.grb` files: an optional `#semiring` pragma, then definitions
separated by `;`, each definition being a signature `name : Type` and a body
`name = term`. Comments run from `--` to end of line, on the pragma's line
too.

The front end makes no Python object per token. `lex` scans the source with
one regex and returns parallel lists: the token texts, their offsets and
their kinds. The parser reads them by position, and makes a `Loc` only for
a node or an error that keeps one, from the token's offset and the offsets
at which the source's lines start.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, repeat
from operator import add, itemgetter
from typing import Callable, Optional

from .grades import SEMIRINGS, NAT_LEQ, GradeError, Permission, Semiring, STAR
from . import syntax as S
from .syntax import (
    Abs, Amp, App, Box, Clone, ExistsT, FloatLit, FloatT, Forall, Fun, Join,
    LetBox, LetPair, LetUnit, Loc, NameT, NatLit, NatT, Pack, Pair, PermVar,
    Prim, Prod, Promote, Pull, Push, RefVal, ResT, Share, Split, Term, Type,
    Unborrow, Uniq, UnitT, UnitVal, Unpack, Var, WithBorrow,
)


class SyntaxError_(Exception):
    """A parse failure with a source location."""

    kind = "SyntaxError"

    def __init__(self, msg: str, loc: Optional[Loc]):
        self.msg = msg
        self.loc = loc
        where = f"{loc}: " if loc else ""
        super().__init__(f"{where}{msg}")

    def render(self, path: str) -> str:
        """The diagnostic as `gradebor check` prints it for the file `path`."""
        where = f"{path}:{self.loc}: " if self.loc else f"{path}: "
        return f"{where}[{self.kind}] {self.msg}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.msg,
            "line": self.loc.line if self.loc else None,
            "col": self.loc.col if self.loc else None,
        }


@dataclass
class Definition:
    name: str
    signature: Type
    body: Term
    loc: Optional[Loc] = None


@dataclass
class SourceProgram:
    semiring: Semiring
    definitions: list[Definition]
    path: str = "<input>"

    @property
    def main(self) -> Definition:
        for d in self.definitions:
            if d.name == "main":
                return d
        raise SyntaxError_("program has no main definition", None)


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {
    "let", "in", "pack", "unpack", "withBorrow", "split", "join", "push",
    "pull", "share", "clone", "as", "forall", "exists",
    "Unit", "Nat", "Float", "Array", "Ref", "Name", "Permission",
}

SYMBOLS = ["-o", "->", "..", "(", ")", "[", "]", "{", "}", "<", ">", ",", ";", ":", "=", "\\", "*", "&", "/", "."]

# One match per token: the whitespace and comments before it, then its text:
# a word, a symbol (in `SYMBOLS` order), a float, a nat, a stray character,
# or the empty text at the end of the input. The alternatives other than
# float and nat differ in their first character, so their order changes only
# speed, and words, the most frequent, come first. The skip never
# backtracks: after the longest skip one of the alternatives that follow
# always matches (`.` takes anything but the newlines it skipped). Every
# text but the one at the end is nonempty.
_SKIP = r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*"
_TOKEN = re.compile(
    r"(" + _SKIP + r")"
    r"([^\W\d][\w']*|" + "|".join(map(re.escape, SYMBOLS)) + r"|\d+\.\d+|\d+|.|\Z)"
)


class _Kinds(dict):
    """Token kinds by text: each symbol, keyword and primitive, and eof for
    the empty text. Any other text is told by its first character: a decimal
    digit begins a nat or a float, a letter or `_` an ident, and anything
    else is stray (a stray character, or a word that begins with a digit
    that is not decimal, such as '²')."""

    def __missing__(self, text: str) -> str:
        c = text[0]
        if c.isdecimal():
            return "float" if "." in text else "nat"
        return "ident" if c.isalpha() or c == "_" else "stray"


_KINDS = _Kinds({
    "": "eof", **dict.fromkeys(SYMBOLS, "symbol"), **dict.fromkeys(KEYWORDS, "keyword"),
    **dict.fromkeys(S.PRIMITIVES, "prim"),
})


def lex(source: str, start: int = 0) -> tuple[list[str], list[int], list[str]]:
    """The tokens of `source` from offset `start`, as three parallel lists:
    their texts, their offsets in `source` and their kinds (ident, nat,
    float, prim, keyword, symbol, stray, eof). The lists end in two eofs,
    each at the end of the input.

    Numbers are decimal digits (`str.isdecimal`); a word starts with a letter
    or `_` and continues with letters, digits, `_` and `'`. No object is made
    per token but its text: one regex scan yields each token's text with the
    skip before it, and the offsets are the running sums of their lengths.
    """
    pairs = _TOKEN.findall(source, start)
    # The scan ends with an empty match at the end of the input, and with a
    # second one when a skip ends the input.
    if len(pairs) < 2 or pairs[-2][1]:
        pairs.append(("", ""))
    texts = list(map(itemgetter(1), pairs))
    offsets = list(accumulate(map(len, chain.from_iterable(pairs)), initial=start))[1::2]
    return texts, offsets, list(map(_KINDS.__getitem__, texts))


# ---------------------------------------------------------------------------
# Parser

_UNARY_OPERATORS = {"split": Split, "join": Join, "push": Push, "pull": Pull, "share": Share}
_OPERATORS = {"withBorrow", "pack", *_UNARY_OPERATORS}
_ATOM_KINDS = {"ident", "nat", "float", "prim"}
_ATOM_TEXTS = {"(", "[", *_OPERATORS}
_BASE_TYPES = {"Unit": UnitT, "Nat": NatT, "Float": FloatT}


class Parser:
    """Recursive descent over the tokens of `lex`, read by position.

    A token is its index into the lists that `lex` returns: `peek`, `next`,
    `expect` and `expect_kind` return one, `texts[t]` and `kinds[t]` read it,
    and `loc(t)` makes its `Loc` for a node or error that keeps one. The
    lists end in a second eof, so the parser may step past the first (only
    `expect_kind("eof")` does) and still read a token. Symbol and keyword
    texts never occur as the text of another kind of token, so `at` and
    `expect` test them by text alone; `at_kind` and `expect_kind` test the
    other kinds.

    The whole source is lexed before parsing starts, so a stray character is
    reported before any parse error. `peek` and `next` are calls, not
    inline reads, though they only read and step `pos`: the token at which a
    deep parse overflows the stack, where `nested too deeply` is reported,
    depends on the calls each nesting level makes before it consumes a token.
    """

    def __init__(self, source: str, ring: Semiring, start: int = 0):
        self.texts, self.offsets, self.kinds = lex(source, start)
        # offset of each line's first character, then one past the end
        self.line_starts = list(accumulate(map(add, map(len, source.split("\n")), repeat(1)), initial=0))
        self.pos = 0
        self.ring = ring
        if "stray" in self.kinds:
            t = self.kinds.index("stray")
            raise SyntaxError_(f"unexpected character {self.texts[t][0]!r}", self.loc(t))

    def loc(self, t: int) -> Loc:
        """The 1-based line and column of token t; columns count characters."""
        offset = self.offsets[t]
        line = bisect_right(self.line_starts, offset)
        return Loc(line, offset - self.line_starts[line - 1] + 1)

    def peek(self) -> int:
        return self.pos

    def next(self) -> int:
        t = self.pos
        self.pos = t + 1
        return t

    def at(self, text: str) -> bool:
        """Whether the current token is the symbol or keyword `text`."""
        return self.texts[self.pos] == text

    def at_kind(self, kind: str) -> bool:
        """Whether the current token is of kind `kind`."""
        return self.kinds[self.pos] == kind

    def expect(self, text: str) -> int:
        """Consume the symbol or keyword `text`."""
        t = self.pos
        if self.texts[t] != text:
            raise SyntaxError_(f"expected {text!r}, found {self.texts[t]!r}", self.loc(t))
        return self.next()

    def expect_kind(self, kind: str) -> int:
        """Consume a token of kind `kind`."""
        t = self.pos
        if self.kinds[t] != kind:
            raise SyntaxError_(f"expected {kind!r}, found {self.texts[t]!r}", self.loc(t))
        return self.next()

    def ident(self) -> str:
        """Consume an ident and return its text."""
        return self.texts[self.expect_kind("ident")]

    @contextmanager
    def depth_guard(self):
        """Report a parse that overflows the interpreter's stack as a syntax error."""
        try:
            yield
        except RecursionError:
            raise SyntaxError_("expression nested too deeply", self.loc(self.pos)) from None

    # -- types --------------------------------------------------------------

    def parse_signature(self) -> Type:
        """A definition's signature: a type, which only here may begin with
        `forall {...} .`, so every quantifier is at the top of one."""
        if not self.at("forall"):
            return self.parse_type()
        self.next()
        self.expect("{")
        binders: list[tuple[str, str]] = []
        while True:
            v = self.ident()
            self.expect(":")
            kt = self.peek()
            if self.texts[kt] not in ("Permission", "Name"):
                raise SyntaxError_("expected kind Permission or Name", self.loc(kt))
            kind = self.texts[self.next()]
            binders.append((v, kind))
            if self.at(","):
                self.next()
                continue
            break
        self.expect("}")
        self.expect(".")
        return Forall(tuple(binders), self.parse_type())

    def parse_type(self) -> Type:
        left = self._parse_prod()
        if self.at("-o"):
            self.next()
            return Fun(left, self.parse_type())
        return left

    def _parse_prod(self) -> Type:
        left = self._parse_prefix()
        if self.at("*"):
            self.next()
            return Prod(left, self._parse_prod())
        return left

    def _parse_prefix(self) -> Type:
        text = self.texts[self.peek()]
        if text == "&":
            self.next()
            p = self.parse_perm()
            return Amp(p, self._parse_prefix())
        if text == "*":
            self.next()
            return Amp(STAR, self._parse_prefix())
        if text == "exists":
            self.next()
            binder = self.ident()
            self.expect(".")
            return ExistsT(binder, self.parse_type())
        if text == "Array" or text == "Ref":
            self.next()
            ident = self.ident()
            payload = self._parse_postfix()
            return ResT(text, ident, payload)
        return self._parse_postfix()

    def _parse_postfix(self) -> Type:
        ty = self._parse_atom_type()
        while self.at("["):
            self.next()
            g = self.parse_grade()
            self.expect("]")
            ty = Box(g, ty)
        return ty

    def _parse_atom_type(self) -> Type:
        t = self.peek()
        text = self.texts[t]
        base = _BASE_TYPES.get(text)
        if base is not None:
            self.next()
            return base()
        if text == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        if self.kinds[t] == "ident":
            self.next()
            return NameT(text)
        if text == "forall":
            raise SyntaxError_("a quantifier may only begin a definition's signature", self.loc(t))
        raise SyntaxError_(f"expected a type, found {text!r}", self.loc(t))

    def parse_perm(self) -> S.PermExpr:
        t = self.peek()
        if self.at("*"):
            self.next()
            return STAR
        kind = self.kinds[t]
        if kind == "nat":
            num = self.nat()
            if self.at("/"):
                self.next()
                den = self.nat()
                try:
                    return Permission(Fraction(num, den))
                except (ZeroDivisionError, GradeError):
                    raise SyntaxError_(f"permission {num}/{den} is not a fraction in (0, 1]", self.loc(t)) from None
            if num != 1:
                raise SyntaxError_(f"whole permission must be 1, found {num}", self.loc(t))
            return Permission(Fraction(1))
        if kind == "ident":
            self.next()
            return PermVar(self.texts[t])
        raise SyntaxError_(f"expected a permission, found {self.texts[t]!r}", self.loc(t))

    def parse_grade(self):
        t = self.peek()
        lo, hi = self.nat(), None
        if self.at(".."):
            self.next()
            hi = self.nat()
        try:
            return self.ring.literal(lo, hi)
        except GradeError as e:
            raise SyntaxError_(str(e), self.loc(t)) from None

    def nat(self) -> int:
        """Consume a nat token and return its value."""
        t = self.expect_kind("nat")
        text = self.texts[t]
        try:
            return int(text)
        except ValueError:  # more digits than int() converts from a string
            raise SyntaxError_(f"numeral too long ({len(text)} digits)", self.loc(t)) from None

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> Term:
        text = self.texts[self.peek()]
        if text == "\\":
            loc = self.loc(self.next())
            param = self.ident()
            ann = None
            if self.at(":"):
                self.next()
                ann = self.parse_type()
            self.expect("->")
            return Abs(param, self.parse_term(), ann, loc=loc)
        if text == "let":
            return self._parse_let()
        if text == "unpack":
            loc = self.loc(self.next())
            self.expect("<")
            ident = self.ident()
            self.expect(",")
            binder = self.ident()
            self.expect(">")
            self.expect("=")
            rhs = self.parse_term()
            self.expect("in")
            body = self.parse_term()
            return Unpack(ident, binder, rhs, body, loc=loc)
        return self._parse_app()

    def _parse_let(self) -> Term:
        loc = self.loc(self.expect("let"))
        t = self.peek()
        text = self.texts[t]
        if text == "(":
            self.next()
            if self.at(")"):
                self.next()
                self.expect("=")
                rhs = self.parse_term()
                self.expect("in")
                return LetUnit(rhs, self.parse_term(), loc=loc)
            left = self.ident()
            self.expect(",")
            right = self.ident()
            self.expect(")")
            self.expect("=")
            rhs = self.parse_term()
            self.expect("in")
            return LetPair(left, right, rhs, self.parse_term(), loc=loc)
        if text == "[":
            self.next()
            binder = self.ident()
            self.expect("]")
            ann = None
            if self.at(":"):
                self.next()
                ann = self.parse_type()
            self.expect("=")
            rhs = self.parse_term()
            self.expect("in")
            return LetBox(binder, rhs, self.parse_term(), ann, loc=loc)
        if text == "*":
            self.next()
            binder = self.ident()
            self.expect("=")
            self.expect("clone")
            rhs = self._parse_atom()
            self.expect("as")
            self.expect("<")
            idents = [self.ident()]
            while self.at(","):
                self.next()
                idents.append(self.ident())
            self.expect(">")
            self.expect("in")
            return Clone(binder, tuple(idents), rhs, self.parse_term(), loc=loc)
        raise SyntaxError_("malformed let binding", self.loc(t))

    def _parse_app(self) -> Term:
        head = self._parse_operator_or_atom()
        while self._at_atom_start():
            arg = self._parse_operator_or_atom()
            head = App(head, arg, loc=head.loc)
        return head

    def _at_atom_start(self) -> bool:
        t = self.peek()
        return self.kinds[t] in _ATOM_KINDS or self.texts[t] in _ATOM_TEXTS

    def _parse_operator_or_atom(self) -> Term:
        text = self.texts[self.peek()]
        ctor = _UNARY_OPERATORS.get(text)
        if ctor is not None:
            loc = self.loc(self.next())
            body = self._parse_atom()
            return ctor(body, loc=loc)
        if text == "withBorrow":
            loc = self.loc(self.next())
            fn = self._parse_atom()
            arg = self._parse_atom()
            return WithBorrow(fn, arg, loc=loc)
        if text == "pack":
            loc = self.loc(self.next())
            self.expect("<")
            ident = self.ident()
            self.expect(",")
            body = self.parse_term()
            self.expect(">")
            return Pack(ident, body, loc=loc)
        return self._parse_atom()

    def _parse_atom(self) -> Term:
        t = self.peek()
        kind, text = self.kinds[t], self.texts[t]
        if kind == "ident":
            self.next()
            return Var(text, loc=self.loc(t))
        if kind == "prim":
            self.next()
            return Prim(text, loc=self.loc(t))
        if kind == "nat":
            return NatLit(self.nat(), loc=self.loc(t))
        if kind == "float":
            self.next()
            return FloatLit(float(text), loc=self.loc(t))
        if text == "(":
            loc = self.loc(self.next())
            if self.at(")"):
                self.next()
                return UnitVal(loc=loc)
            first = self.parse_term()
            if self.at(","):
                self.next()
                second = self.parse_term()
                self.expect(")")
                return Pair(first, second, loc=loc)
            self.expect(")")
            return first
        if text == "[":
            loc = self.loc(self.next())
            body = self.parse_term()
            self.expect("]")
            return Promote(body, loc=loc)
        if text in _OPERATORS:
            return self._parse_operator_or_atom()
        raise SyntaxError_(f"expected a term, found {text!r}", self.loc(t))


# Blank and comment lines, then `#semiring` and the rest of its line up to a
# comment. Whitespace here is what `str.strip` removes.
_PRAGMA = re.compile(r"((?:[^\S\n]*(?:--[^\n]*)?\n)*)[^\S\n]*#semiring((?:(?!--)[^\n])*)")
_SKIPPED = re.compile(_SKIP)


def _read_pragma(source: str) -> tuple[Semiring, int]:
    """The semiring that the pragma names (`NAT_LEQ` without one) and the
    offset from which the source is lexed.

    The pragma is the first line that is neither blank nor a comment, if
    that line starts with `#semiring`. Lexing starts after its name, past
    the lines before it, unless one of them holds whitespace that the lexer
    does not skip (a form feed, say): then lexing starts at 0, so that
    character is reported as it would be anywhere else."""
    m = _PRAGMA.match(source)
    if m is None:
        return NAT_LEQ, 0
    name = m[2].strip()
    if name not in SEMIRINGS:
        raise SyntaxError_(f"unknown semiring {name!r}", Loc(m[1].count("\n") + 1, 1))
    return SEMIRINGS[name], m.end(2) if _SKIPPED.fullmatch(m[1]) else 0


def parse_program(text: str, path: str = "<input>", ring: Optional[Semiring] = None) -> SourceProgram:
    pragma_ring, start = _read_pragma(text)
    ring = ring or pragma_ring
    p = Parser(text, ring, start)
    sigs: dict[str, Type] = {}
    order: list[str] = []
    bodies: dict[str, Term] = {}
    locs: dict[str, Loc] = {}
    with p.depth_guard():
        while not p.at_kind("eof"):
            name_tok = p.expect_kind("ident")
            name = p.texts[name_tok]
            if p.at(":"):
                p.next()
                if name in sigs:
                    raise SyntaxError_(f"duplicate signature for {name!r}", p.loc(name_tok))
                sigs[name] = p.parse_signature()
                locs.setdefault(name, p.loc(name_tok))
                order.append(name)
            elif p.at("="):
                p.next()
                if name not in sigs:
                    raise SyntaxError_(f"body for {name!r} precedes its signature", p.loc(name_tok))
                if name in bodies:
                    raise SyntaxError_(f"duplicate body for {name!r}", p.loc(name_tok))
                bodies[name] = p.parse_term()
            else:
                raise SyntaxError_(f"expected ':' or '=' after {name!r}", p.loc(p.pos))
            if p.at(";"):
                p.next()
            elif not p.at_kind("eof"):
                raise SyntaxError_(f"expected ';', found {p.texts[p.pos]!r}", p.loc(p.pos))
    defs = []
    for name in order:
        if name not in bodies:
            raise SyntaxError_(f"definition {name!r} has no body", locs[name])
        defs.append(Definition(name, sigs[name], bodies[name], locs[name]))
    prog = SourceProgram(ring, defs, path)
    prog.main  # force the missing-main error early
    return prog


def parse_term(text: str, ring: Optional[Semiring] = None) -> Term:
    p = Parser(text, ring or NAT_LEQ)
    with p.depth_guard():
        t = p.parse_term()
    p.expect_kind("eof")
    return t


def parse_type(text: str, ring: Optional[Semiring] = None) -> Type:
    """A type, which may begin with `forall`, as a signature may."""
    p = Parser(text, ring or NAT_LEQ)
    with p.depth_guard():
        t = p.parse_signature()
    p.expect_kind("eof")
    return t


# ---------------------------------------------------------------------------
# Pretty printer


def print_perm(p: S.PermExpr) -> str:
    if isinstance(p, PermVar):
        return p.name
    return str(p)


def print_type(ty: Type, prec: int = 0) -> str:
    """Print a type in surface syntax, parenthesized for context `prec`.

    Precedence levels: 0 arrow, 1 product, 2 prefix, 3 atom. A node whose
    level is below `prec` is wrapped in parentheses. Dispatch tests the exact
    class, most frequent first (the heap types of traces lead), and each tree
    level costs one Python frame, so depth is bounded by the recursion limit
    alone. The order of the tests changes only speed: the classes are
    disjoint, so each node prints the text of its own branch.
    """
    cls = type(ty)
    if cls is Amp:
        p = ty.perm
        if type(p) is Permission and p.is_star:
            s = f"* {print_type(ty.body, 2)}"
        else:
            s = f"& {print_perm(p)} {print_type(ty.body, 2)}"
        return f"({s})" if prec > 2 else s
    if cls is ResT:
        s = f"{ty.kind} {ty.ident} {print_type(ty.payload, 3)}"
        return f"({s})" if prec > 2 else s
    if cls is FloatT:
        return "Float"
    if cls is Fun:
        s = f"{print_type(ty.dom, 1)} -o {print_type(ty.cod, 0)}"
        return f"({s})" if prec > 0 else s
    if cls is Box:
        s = f"{print_type(ty.body, 3)} [{ty.grade}]"
        return f"({s})" if prec > 2 else s
    if cls is NatT:
        return "Nat"
    if cls is UnitT:
        return "Unit"
    if cls is Prod:
        s = f"{print_type(ty.left, 2)} * {print_type(ty.right, 1)}"
        return f"({s})" if prec > 1 else s
    if cls is NameT:
        return ty.ident
    if cls is ExistsT:
        s = f"exists {ty.binder} . {print_type(ty.body, 0)}"
        return f"({s})" if prec > 2 else s
    if cls is Forall:
        # only the top of a signature holds one, so it is never parenthesized
        binders = ", ".join(f"{v} : {k}" for v, k in ty.binders)
        return f"forall {{{binders}}} . {print_type(ty.body, 0)}"
    raise ValueError(f"unprintable type {type(ty).__name__}")


def _annotation(prec: int) -> Callable[[Term], str]:
    """The text of a binder's optional type annotation, the type printed at `prec`."""
    return lambda t: f" : {print_type(t.ann, prec)}" if t.ann is not None else ""


def _float_text(t: FloatLit) -> str:
    s = repr(t.value)
    return s if "." in s or "e" in s else s + ".0"


# The surface layout of each term class: (level, pieces). A piece is literal
# text, a field as (name, precedence), or a function of the node that gives
# any other text. A field with a precedence is a child term printed at that
# precedence; with None it is a name, printed as it is. Precedence levels: 0
# open (lets, lambdas), 1 application, 2 atom; a node whose level is below
# its context's precedence is wrapped in parentheses. `print_term` is
# compiled from this table and `print_around` reads it, so the two cannot
# disagree. `print_term` tests the classes in this order: application
# spines, names and literals dominate trace terms.
_LAYOUTS: dict[type, tuple[int, tuple]] = {
    App: (1, (("fn", 1), " ", ("arg", 2))),
    Var: (2, (("name", None),)),
    Prim: (2, (("name", None),)),
    NatLit: (2, (("value", None),)),
    FloatLit: (2, (_float_text,)),
    RefVal: (2, ("#", ("ref", None))),
    Uniq: (1, ("*", ("body", 2))),
    Split: (1, ("split ", ("body", 2))),
    Join: (1, ("join ", ("body", 2))),
    Unborrow: (1, ("unborrow ", ("body", 2))),
    Push: (1, ("push ", ("body", 2))),
    Pull: (1, ("pull ", ("body", 2))),
    Share: (1, ("share ", ("body", 2))),
    Pair: (2, ("(", ("left", 0), ", ", ("right", 0), ")")),
    LetPair: (0, ("let (", ("left", None), ", ", ("right", None), ") = ", ("rhs", 1), " in ", ("body", 0))),
    Abs: (0, ("\\", ("param", None), _annotation(2), " -> ", ("body", 0))),
    UnitVal: (2, ("()",)),
    Pack: (1, ("pack <", ("ident", None), ", ", ("body", 0), ">")),
    Unpack: (0, ("unpack <", ("ident", None), ", ", ("binder", None), "> = ", ("rhs", 1), " in ", ("body", 0))),
    WithBorrow: (1, ("withBorrow ", ("fn", 2), " ", ("arg", 2))),
    LetUnit: (0, ("let () = ", ("rhs", 1), " in ", ("body", 0))),
    Promote: (2, ("[", ("body", 0), "]")),
    LetBox: (0, ("let [", ("binder", None), "]", _annotation(3), " = ", ("rhs", 1), " in ", ("body", 0))),
    Clone: (0, ("let *", ("binder", None), " = clone ", ("rhs", 2), " as <", lambda t: ", ".join(t.idents),
                "> in ", ("body", 0))),
}


def print_term(t: Term, prec: int = 0) -> str:
    """Print a term in surface syntax, parenthesized for context `prec`,
    each class by its `_LAYOUTS` entry. Depth is bounded by the recursion
    limit alone."""
    return _term_printer()(t, prec)


@cache
def _term_printer() -> Callable[..., str]:
    """The body of `print_term`, compiled from `_LAYOUTS` on first use.

    Each class gets one branch that prints its pieces with one f-string, the
    way `dataclasses` compiles `__init__` from the fields, so a node costs
    what a hand-written branch costs and each tree level one Python frame. A
    loop over the pieces in place of the branches printed 2000 generated
    programs about 1.6 times slower (Python 3.11). Compiling takes about a
    millisecond, which a start-up that prints no term does not pay."""
    env = {"__name__": __name__}
    src = ["def print_term(t, prec=0):", "    cls = type(t)"]
    for k, (cls, (level, pieces)) in enumerate(_LAYOUTS.items()):
        env[f"C{k}"] = cls
        body = ""
        for j, p in enumerate(pieces):
            if type(p) is str:
                body += p.replace("{", "{{").replace("}", "}}")
            elif type(p) is tuple:
                body += f"{{t.{p[0]}}}" if p[1] is None else f"{{print_term(t.{p[0]}, {p[1]})}}"
            else:
                env[f"F{k}_{j}"] = p
                body += f"{{F{k}_{j}(t)}}"
        src.append(f"    if cls is C{k}:")
        if level == 2:  # an atom, wrapped in no context
            src.append(f"        return f{body!r}")
        else:
            src += [f"        s = f{body!r}", f"        return f'({{s}})' if prec > {level} else s"]
    src.append("    raise ValueError(f'unprintable term {cls.__name__}')")
    exec(compile("\n".join(src), "<print_term>", "exec"), env)
    return env["print_term"]


def print_around(t: Term, child: str, prec: int) -> tuple[str, str, int]:
    """t printed for context `prec`, split around its child term `child`.

    Returns (left, right, q) with `left + print_term(t.<child>, q) + right
    == print_term(t, prec)`: the text on either side of the child, and the
    precedence the child is printed at."""
    level, pieces = _LAYOUTS[type(t)]
    i = next(i for i, p in enumerate(pieces) if type(p) is tuple and p[0] == child)
    left = "".join([_piece(t, p) for p in pieces[:i]])
    right = "".join([_piece(t, p) for p in pieces[i + 1 :]])
    if prec > level:
        left, right = "(" + left, right + ")"
    return left, right, pieces[i][1]


def _piece(t: Term, p) -> str:
    """The text of the layout piece p of t."""
    if type(p) is str:
        return p
    if type(p) is tuple:
        value = getattr(t, p[0])
        return str(value) if p[1] is None else print_term(value, p[1])
    return p(t)


def print_program(prog: SourceProgram) -> str:
    lines = [f"#semiring {prog.semiring.name}", ""]
    for d in prog.definitions:
        lines.append(f"{d.name} : {print_type(d.signature)};")
        lines.append(f"{d.name} =")
        lines.append(f"  {print_term(d.body)};")
        lines.append("")
    return "\n".join(lines)
