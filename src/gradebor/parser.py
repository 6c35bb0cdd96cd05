"""Concrete surface syntax: lexer, parser, and pretty printer.

Programs are `.grb` files: an optional `#semiring` pragma, then definitions
separated by `;`, each definition being a signature `name : Type` and a body
`name = term`. Comments run from `--` to end of line.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

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

    def __init__(self, msg: str, loc: Optional[Loc]):
        self.msg = msg
        self.loc = loc
        where = f"{loc}: " if loc else ""
        super().__init__(f"{where}{msg}")

    def render(self, path: str) -> str:
        """The diagnostic as `gradebor check` prints it for the file `path`."""
        where = f"{path}:{self.loc}: " if self.loc else f"{path}: "
        return f"{where}[SyntaxError] {self.msg}"


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


class Token(NamedTuple):
    kind: str  # ident, nat, float, prim, keyword, symbol, eof
    text: str
    line: int
    col: int

    @property
    def loc(self) -> Loc:
        return Loc(self.line, self.col)


# One pattern per token: whitespace and comments to skip, then exactly one of
# float, nat, word, symbol (in `SYMBOLS` order), a stray character, or the end
# of the input. The skip never backtracks: each of its alternatives consumes
# a character, and after the longest skip one of the alternatives that
# follow always matches (`.` takes anything but the newlines it skipped).
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"
    r"(?:(\d+\.\d+)|(\d+)|([^\W\d][\w']*)|(" + "|".join(map(re.escape, SYMBOLS)) + r")|(.)|\Z)"
)
_FLOAT, _NAT, _WORD, _SYMBOL, _STRAY = 1, 2, 3, 4, 5
_WORD_KINDS = {**{k: "keyword" for k in KEYWORDS}, **{p: "prim" for p in S.PRIMITIVES}}


def lex(source: str) -> list[Token]:
    """Tokens of `source`, ending in eof, each with its 1-based line and column.

    Numbers are decimal digits (`str.isdecimal`); a word starts with a letter
    or `_` and continues with letters, digits, `_` and `'`.
    """
    toks: list[Token] = []
    append = toks.append
    line, line_start, done = 1, 0, 0
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        start = m.start(group) if group else m.end()
        if start != done:
            newlines = source.count("\n", done, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", done, start) + 1
        done = m.end()
        col = start - line_start + 1
        if group == _SYMBOL:
            append(Token("symbol", m[group], line, col))
        elif group == _WORD:
            text = m[group]
            if not (text[0].isalpha() or text[0] == "_"):  # a non-decimal digit such as '²'
                raise SyntaxError_(f"unexpected character {text[0]!r}", Loc(line, col))
            append(Token(_WORD_KINDS.get(text, "ident"), text, line, col))
        elif group == _NAT:
            append(Token("nat", m[group], line, col))
        elif group == _FLOAT:
            append(Token("float", m[group], line, col))
        elif group == _STRAY:
            raise SyntaxError_(f"unexpected character {m[group]!r}", Loc(line, col))
        else:
            append(Token("eof", "", line, col))
            break
    return toks


# ---------------------------------------------------------------------------
# Parser

_UNARY_OPERATORS = {"split": Split, "join": Join, "push": Push, "pull": Pull, "share": Share}
_OPERATORS = {"withBorrow", "pack", *_UNARY_OPERATORS}
_ATOM_KINDS = {"ident", "nat", "float", "prim"}
_ATOM_TEXTS = {"(", "[", *_OPERATORS}
_BASE_TYPES = {"Unit": UnitT, "Nat": NatT, "Float": FloatT}


class Parser:
    """Recursive descent over the tokens of `lex`.

    The token list gets a second eof, so the parser may step past the first
    (only `expect_kind("eof")` does) and still read a token. Symbol and
    keyword texts never occur as the text of another kind of token, so `at`
    and `expect` test them by text alone; `at_kind` and `expect_kind` test
    the other kinds.
    """

    def __init__(self, tokens: list[Token], ring: Semiring):
        self.toks = tokens + tokens[-1:]
        self.pos = 0
        self.ring = ring

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        """Whether the current token is the symbol or keyword `text`."""
        return self.toks[self.pos].text == text

    def at_kind(self, kind: str) -> bool:
        """Whether the current token is of kind `kind`."""
        return self.toks[self.pos].kind == kind

    def expect(self, text: str) -> Token:
        """Consume the symbol or keyword `text`."""
        t = self.toks[self.pos]
        if t.text != text:
            raise SyntaxError_(f"expected {text!r}, found {t.text!r}", t.loc)
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        """Consume a token of kind `kind`."""
        t = self.toks[self.pos]
        if t.kind != kind:
            raise SyntaxError_(f"expected {kind!r}, found {t.text!r}", t.loc)
        return self.next()

    def ident(self) -> Token:
        return self.expect_kind("ident")

    @contextmanager
    def depth_guard(self):
        """Report a parse that overflows the interpreter's stack as a syntax error."""
        try:
            yield
        except RecursionError:
            raise SyntaxError_("expression nested too deeply", self.peek().loc) from None

    # -- types --------------------------------------------------------------

    def parse_type(self) -> Type:
        if self.at("forall"):
            self.next()
            return self._parse_forall()
        return self._parse_arrow()

    def _parse_forall(self) -> Type:
        # 'forall' has been consumed
        self.expect("{")
        binders: list[tuple[str, str]] = []
        while True:
            v = self.ident().text
            self.expect(":")
            kt = self.peek()
            if kt.text not in ("Permission", "Name"):
                raise SyntaxError_("expected kind Permission or Name", kt.loc)
            kind = self.next().text
            binders.append((v, kind))
            if self.at(","):
                self.next()
                continue
            break
        self.expect("}")
        self.expect(".")
        body = self.parse_type()
        if isinstance(body, Forall):
            return Forall(tuple(binders) + body.binders, body.body)
        return Forall(tuple(binders), body)

    def _parse_arrow(self) -> Type:
        left = self._parse_prod()
        if self.at("-o"):
            self.next()
            return Fun(left, self._parse_arrow())
        return left

    def _parse_prod(self) -> Type:
        left = self._parse_prefix()
        if self.at("*"):
            self.next()
            return Prod(left, self._parse_prod())
        return left

    def _parse_prefix(self) -> Type:
        text = self.peek().text
        if text == "&":
            self.next()
            p = self.parse_perm()
            return Amp(p, self._parse_prefix())
        if text == "*":
            self.next()
            return Amp(STAR, self._parse_prefix())
        if text == "exists":
            self.next()
            binder = self.ident().text
            self.expect(".")
            return ExistsT(binder, self.parse_type())
        if text == "Array" or text == "Ref":
            self.next()
            ident = self.ident().text
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
        base = _BASE_TYPES.get(t.text)
        if base is not None:
            self.next()
            return base()
        if t.text == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        if t.kind == "ident":
            self.next()
            return NameT(t.text)
        raise SyntaxError_(f"expected a type, found {t.text!r}", t.loc)

    def parse_perm(self) -> S.PermExpr:
        t = self.peek()
        if self.at("*"):
            self.next()
            return STAR
        if t.kind == "nat":
            num = self.nat()
            if self.at("/"):
                self.next()
                den = self.nat()
                try:
                    return Permission(Fraction(num, den))
                except (ZeroDivisionError, GradeError):
                    raise SyntaxError_(f"permission {num}/{den} is not a fraction in (0, 1]", t.loc) from None
            if num != 1:
                raise SyntaxError_(f"whole permission must be 1, found {num}", t.loc)
            return Permission(Fraction(1))
        if t.kind == "ident":
            self.next()
            return PermVar(t.text)
        raise SyntaxError_(f"expected a permission, found {t.text!r}", t.loc)

    def parse_grade(self):
        t = self.peek()
        lo, hi = self.nat(), None
        if self.at(".."):
            self.next()
            hi = self.nat()
        try:
            return self.ring.literal(lo, hi)
        except GradeError as e:
            raise SyntaxError_(str(e), t.loc) from None

    def nat(self) -> int:
        """Consume a nat token and return its value."""
        t = self.expect_kind("nat")
        try:
            return int(t.text)
        except ValueError:  # more digits than int() converts from a string
            raise SyntaxError_(f"numeral too long ({len(t.text)} digits)", t.loc) from None

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> Term:
        t = self.peek()
        if t.text == "\\":
            loc = self.next().loc
            param = self.ident().text
            ann = None
            if self.at(":"):
                self.next()
                ann = self.parse_type()
            self.expect("->")
            return Abs(param, self.parse_term(), ann, loc=loc)
        if t.text == "let":
            return self._parse_let()
        if t.text == "unpack":
            loc = self.next().loc
            self.expect("<")
            ident = self.ident().text
            self.expect(",")
            binder = self.ident().text
            self.expect(">")
            self.expect("=")
            rhs = self.parse_term()
            self.expect("in")
            body = self.parse_term()
            return Unpack(ident, binder, rhs, body, loc=loc)
        return self._parse_app()

    def _parse_let(self) -> Term:
        loc = self.expect("let").loc
        t = self.peek()
        if t.text == "(":
            self.next()
            if self.at(")"):
                self.next()
                self.expect("=")
                rhs = self.parse_term()
                self.expect("in")
                return LetUnit(rhs, self.parse_term(), loc=loc)
            left = self.ident().text
            self.expect(",")
            right = self.ident().text
            self.expect(")")
            self.expect("=")
            rhs = self.parse_term()
            self.expect("in")
            return LetPair(left, right, rhs, self.parse_term(), loc=loc)
        if t.text == "[":
            self.next()
            binder = self.ident().text
            self.expect("]")
            ann = None
            if self.at(":"):
                self.next()
                ann = self.parse_type()
            self.expect("=")
            rhs = self.parse_term()
            self.expect("in")
            return LetBox(binder, rhs, self.parse_term(), ann, loc=loc)
        if t.text == "*":
            self.next()
            binder = self.ident().text
            self.expect("=")
            self.expect("clone")
            rhs = self._parse_atom()
            self.expect("as")
            self.expect("<")
            idents = [self.ident().text]
            while self.at(","):
                self.next()
                idents.append(self.ident().text)
            self.expect(">")
            self.expect("in")
            return Clone(binder, tuple(idents), rhs, self.parse_term(), loc=loc)
        raise SyntaxError_("malformed let binding", t.loc)

    def _parse_app(self) -> Term:
        head = self._parse_operator_or_atom()
        while self._at_atom_start():
            arg = self._parse_operator_or_atom()
            head = App(head, arg, loc=head.loc)
        return head

    def _at_atom_start(self) -> bool:
        t = self.peek()
        return t.kind in _ATOM_KINDS or t.text in _ATOM_TEXTS

    def _parse_operator_or_atom(self) -> Term:
        t = self.peek()
        ctor = _UNARY_OPERATORS.get(t.text)
        if ctor is not None:
            loc = self.next().loc
            body = self._parse_atom()
            return ctor(body, loc=loc)
        if t.text == "withBorrow":
            loc = self.next().loc
            fn = self._parse_atom()
            arg = self._parse_atom()
            return WithBorrow(fn, arg, loc=loc)
        if t.text == "pack":
            loc = self.next().loc
            self.expect("<")
            ident = self.ident().text
            self.expect(",")
            body = self.parse_term()
            self.expect(">")
            return Pack(ident, body, loc=loc)
        return self._parse_atom()

    def _parse_atom(self) -> Term:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return Var(t.text, loc=t.loc)
        if t.kind == "prim":
            self.next()
            return Prim(t.text, loc=t.loc)
        if t.kind == "nat":
            return NatLit(self.nat(), loc=t.loc)
        if t.kind == "float":
            self.next()
            return FloatLit(float(t.text), loc=t.loc)
        if t.text == "(":
            loc = self.next().loc
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
        if t.text == "[":
            loc = self.next().loc
            body = self.parse_term()
            self.expect("]")
            return Promote(body, loc=loc)
        if t.text in _OPERATORS:
            return self._parse_operator_or_atom()
        raise SyntaxError_(f"expected a term, found {t.text!r}", t.loc)


def _read_pragma(source: str) -> tuple[Semiring, str]:
    ring = NAT_LEQ
    lines = source.split("\n")
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("--"):
            continue
        if stripped.startswith("#semiring"):
            name = stripped[len("#semiring"):].strip()
            if name not in SEMIRINGS:
                raise SyntaxError_(f"unknown semiring {name!r}", Loc(idx + 1, 1))
            ring = SEMIRINGS[name]
            lines[idx] = ""
        break
    return ring, "\n".join(lines)


def parse_program(text: str, path: str = "<input>", ring: Optional[Semiring] = None) -> SourceProgram:
    pragma_ring, rest = _read_pragma(text)
    ring = ring or pragma_ring
    p = Parser(lex(rest), ring)
    sigs: dict[str, Type] = {}
    order: list[str] = []
    bodies: dict[str, Term] = {}
    locs: dict[str, Loc] = {}
    with p.depth_guard():
        while not p.at_kind("eof"):
            name_tok = p.ident()
            name = name_tok.text
            if p.at(":"):
                p.next()
                if name in sigs:
                    raise SyntaxError_(f"duplicate signature for {name!r}", name_tok.loc)
                sigs[name] = p.parse_type()
                locs.setdefault(name, name_tok.loc)
                order.append(name)
            elif p.at("="):
                p.next()
                if name not in sigs:
                    raise SyntaxError_(f"body for {name!r} precedes its signature", name_tok.loc)
                if name in bodies:
                    raise SyntaxError_(f"duplicate body for {name!r}", name_tok.loc)
                bodies[name] = p.parse_term()
            else:
                raise SyntaxError_(f"expected ':' or '=' after {name!r}", p.peek().loc)
            if p.at(";"):
                p.next()
            elif not p.at_kind("eof"):
                raise SyntaxError_(f"expected ';', found {p.peek().text!r}", p.peek().loc)
    defs = []
    for name in order:
        if name not in bodies:
            raise SyntaxError_(f"definition {name!r} has no body", locs[name])
        defs.append(Definition(name, sigs[name], bodies[name], locs[name]))
    prog = SourceProgram(ring, defs, path)
    prog.main  # force the missing-main error early
    return prog


def parse_term(text: str, ring: Optional[Semiring] = None) -> Term:
    p = Parser(lex(text), ring or NAT_LEQ)
    with p.depth_guard():
        t = p.parse_term()
    p.expect_kind("eof")
    return t


def parse_type(text: str, ring: Optional[Semiring] = None) -> Type:
    p = Parser(lex(text), ring or NAT_LEQ)
    with p.depth_guard():
        t = p.parse_type()
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
        binders = ", ".join(f"{v} : {k}" for v, k in ty.binders)
        s = f"forall {{{binders}}} . {print_type(ty.body, 0)}"
        return f"({s})" if prec > 0 else s
    raise ValueError(f"unprintable type {type(ty).__name__}")


# Terms printed as a keyword or `*` before an atom, at application level.
_PREFIXES: dict[type, str] = {
    Uniq: "*", Split: "split ", Join: "join ", Unborrow: "unborrow ",
    Push: "push ", Pull: "pull ", Share: "share ",
}


def print_term(t: Term, prec: int = 0) -> str:
    """Print a term in surface syntax, parenthesized for context `prec`.

    Precedence levels: 0 open (lets, lambdas), 1 application, 2 atom. A node
    whose level is below `prec` is wrapped in parentheses. Dispatch tests the
    exact class, most frequent first (application spines, names and literals
    dominate trace terms), and each tree level costs one Python frame, so
    depth is bounded by the recursion limit alone. The order of the tests
    changes only speed: the classes are disjoint, so each node prints the
    text of its own branch.
    """
    cls = type(t)
    if cls is App:
        s = f"{print_term(t.fn, 1)} {print_term(t.arg, 2)}"
        return f"({s})" if prec > 1 else s
    if cls is Var or cls is Prim:
        return t.name
    if cls is NatLit:
        return str(t.value)
    if cls is FloatLit:
        s = repr(t.value)
        return s if "." in s or "e" in s else s + ".0"
    if cls is RefVal:
        return f"#{t.ref}"
    prefix = _PREFIXES.get(cls)
    if prefix is not None:
        s = f"{prefix}{print_term(t.body, 2)}"
        return f"({s})" if prec > 1 else s
    if cls is Pair:
        return f"({print_term(t.left, 0)}, {print_term(t.right, 0)})"
    if cls is LetPair:
        s = f"let ({t.left}, {t.right}) = {print_term(t.rhs, 1)} in {print_term(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if cls is Abs:
        ann = f" : {print_type(t.ann, 2)}" if t.ann is not None else ""
        s = f"\\{t.param}{ann} -> {print_term(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if cls is UnitVal:
        return "()"
    if cls is Pack:
        s = f"pack <{t.ident}, {print_term(t.body, 0)}>"
        return f"({s})" if prec > 1 else s
    if cls is Unpack:
        s = f"unpack <{t.ident}, {t.binder}> = {print_term(t.rhs, 1)} in {print_term(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if cls is WithBorrow:
        s = f"withBorrow {print_term(t.fn, 2)} {print_term(t.arg, 2)}"
        return f"({s})" if prec > 1 else s
    if cls is LetUnit:
        s = f"let () = {print_term(t.rhs, 1)} in {print_term(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if cls is Promote:
        return f"[{print_term(t.body, 0)}]"
    if cls is LetBox:
        ann = f" : {print_type(t.ann, 3)}" if t.ann is not None else ""
        s = f"let [{t.binder}]{ann} = {print_term(t.rhs, 1)} in {print_term(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    if cls is Clone:
        s = f"let *{t.binder} = clone {print_term(t.rhs, 2)} as <{', '.join(t.idents)}> in {print_term(t.body, 0)}"
        return f"({s})" if prec > 0 else s
    raise ValueError(f"unprintable term {type(t).__name__}")


def print_program(prog: SourceProgram) -> str:
    lines = [f"#semiring {prog.semiring.name}", ""]
    for d in prog.definitions:
        lines.append(f"{d.name} : {print_type(d.signature)};")
        lines.append(f"{d.name} =")
        lines.append(f"  {print_term(d.body)};")
        lines.append("")
    return "\n".join(lines)
