"""Concrete surface syntax: lexer, parser, and pretty printer.

Programs are `.grb` files: an optional `#semiring` pragma, then definitions
separated by `;`, each definition being a signature `name : Type` and a body
`name = term`. Comments run from `--` to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .grades import SEMIRINGS, NAT_LEQ, Permission, Semiring, STAR
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


@dataclass
class Token:
    kind: str  # ident, nat, float, prim, keyword, symbol, eof
    text: str
    loc: Loc


def lex(source: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)

    def loc():
        return Loc(line, col)

    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            col += 1
            i += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start = loc()
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                k = j + 1
                while k < n and source[k].isdigit():
                    k += 1
                toks.append(Token("float", source[i:k], start))
                col += k - i
                i = k
            else:
                toks.append(Token("nat", source[i:j], start))
                col += j - i
                i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            text = source[i:j]
            if text in S.PRIMITIVES:
                kind = "prim"
            elif text in KEYWORDS:
                kind = "keyword"
            else:
                kind = "ident"
            toks.append(Token(kind, text, start))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                toks.append(Token("symbol", sym, start))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise SyntaxError_(f"unexpected character {c!r}", start)
    toks.append(Token("eof", "", Loc(line, col)))
    return toks


# ---------------------------------------------------------------------------
# Parser

class Parser:
    def __init__(self, tokens: list[Token], ring: Semiring):
        self.toks = tokens
        self.pos = 0
        self.ring = ring

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: Optional[str] = None, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise SyntaxError_(f"expected {want!r}, found {t.text!r}", t.loc)
        return self.next()

    def sym(self, s: str) -> Token:
        return self.expect("symbol", s)

    def ident(self) -> Token:
        return self.expect("ident")

    # -- types --------------------------------------------------------------

    def parse_type(self) -> Type:
        if self.at("keyword", "forall"):
            self.next()
            return self._parse_forall()
        return self._parse_arrow()

    def _parse_forall(self) -> Type:
        # 'forall' has been consumed
        self.sym("{")
        binders: list[tuple[str, str]] = []
        while True:
            v = self.ident().text
            self.sym(":")
            kt = self.peek()
            if self.at("keyword", "Permission") or self.at("keyword", "Name"):
                kind = self.next().text
            else:
                raise SyntaxError_("expected kind Permission or Name", kt.loc)
            binders.append((v, kind))
            if self.at("symbol", ","):
                self.next()
                continue
            break
        self.sym("}")
        self.sym(".")
        body = self.parse_type()
        if isinstance(body, Forall):
            return Forall(tuple(binders) + body.binders, body.body)
        return Forall(tuple(binders), body)

    def _parse_arrow(self) -> Type:
        left = self._parse_prod()
        if self.at("symbol", "-o"):
            self.next()
            return Fun(left, self._parse_arrow())
        return left

    def _parse_prod(self) -> Type:
        left = self._parse_prefix()
        if self.at("symbol", "*"):
            self.next()
            return Prod(left, self._parse_prod())
        return left

    def _parse_prefix(self) -> Type:
        t = self.peek()
        if self.at("symbol", "&"):
            self.next()
            p = self.parse_perm()
            return Amp(p, self._parse_prefix())
        if self.at("symbol", "*"):
            self.next()
            return Amp(STAR, self._parse_prefix())
        if self.at("keyword", "exists"):
            self.next()
            binder = self.ident().text
            self.sym(".")
            return ExistsT(binder, self.parse_type())
        if self.at("keyword", "Array") or self.at("keyword", "Ref"):
            kind = self.next().text
            ident = self.ident().text
            payload = self._parse_postfix()
            return ResT(kind, ident, payload)
        return self._parse_postfix()

    def _parse_postfix(self) -> Type:
        ty = self._parse_atom_type()
        while self.at("symbol", "["):
            self.next()
            g = self.parse_grade()
            self.sym("]")
            ty = Box(g, ty)
        return ty

    def _parse_atom_type(self) -> Type:
        t = self.peek()
        if self.at("keyword", "Unit"):
            self.next()
            return UnitT()
        if self.at("keyword", "Nat"):
            self.next()
            return NatT()
        if self.at("keyword", "Float"):
            self.next()
            return FloatT()
        if self.at("symbol", "("):
            self.next()
            ty = self.parse_type()
            self.sym(")")
            return ty
        if t.kind == "ident":
            self.next()
            return NameT(t.text)
        raise SyntaxError_(f"expected a type, found {t.text!r}", t.loc)

    def parse_perm(self) -> S.PermExpr:
        t = self.peek()
        if self.at("symbol", "*"):
            self.next()
            return STAR
        if t.kind == "nat":
            self.next()
            num = int(t.text)
            if self.at("symbol", "/"):
                self.next()
                den = int(self.expect("nat").text)
                return Permission(Fraction(num, den))
            if num != 1:
                raise SyntaxError_(f"whole permission must be 1, found {num}", t.loc)
            return Permission(Fraction(1))
        if t.kind == "ident":
            self.next()
            return PermVar(t.text)
        raise SyntaxError_(f"expected a permission, found {t.text!r}", t.loc)

    def parse_grade(self):
        t = self.expect("nat")
        lo = int(t.text)
        if self.at("symbol", ".."):
            self.next()
            hi = int(self.expect("nat").text)
            return self.ring.literal(lo, hi)
        return self.ring.literal(lo)

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> Term:
        t = self.peek()
        if self.at("symbol", "\\"):
            loc = self.next().loc
            param = self.ident().text
            ann = None
            if self.at("symbol", ":"):
                self.next()
                ann = self.parse_type()
            self.sym("->")
            return Abs(param, self.parse_term(), ann, loc=loc)
        if self.at("keyword", "let"):
            return self._parse_let()
        if self.at("keyword", "unpack"):
            loc = self.next().loc
            self.sym("<")
            ident = self.ident().text
            self.sym(",")
            binder = self.ident().text
            self.sym(">")
            self.sym("=")
            rhs = self.parse_term()
            self.expect("keyword", "in")
            body = self.parse_term()
            return Unpack(ident, binder, rhs, body, loc=loc)
        return self._parse_app()

    def _parse_let(self) -> Term:
        loc = self.expect("keyword", "let").loc
        if self.at("symbol", "("):
            self.next()
            if self.at("symbol", ")"):
                self.next()
                self.sym("=")
                rhs = self.parse_term()
                self.expect("keyword", "in")
                return LetUnit(rhs, self.parse_term(), loc=loc)
            left = self.ident().text
            self.sym(",")
            right = self.ident().text
            self.sym(")")
            self.sym("=")
            rhs = self.parse_term()
            self.expect("keyword", "in")
            return LetPair(left, right, rhs, self.parse_term(), loc=loc)
        if self.at("symbol", "["):
            self.next()
            binder = self.ident().text
            self.sym("]")
            ann = None
            if self.at("symbol", ":"):
                self.next()
                ann = self.parse_type()
            self.sym("=")
            rhs = self.parse_term()
            self.expect("keyword", "in")
            return LetBox(binder, rhs, self.parse_term(), ann, loc=loc)
        if self.at("symbol", "*"):
            self.next()
            binder = self.ident().text
            self.sym("=")
            self.expect("keyword", "clone")
            rhs = self._parse_atom()
            self.expect("keyword", "as")
            self.sym("<")
            idents = [self.ident().text]
            while self.at("symbol", ","):
                self.next()
                idents.append(self.ident().text)
            self.sym(">")
            self.expect("keyword", "in")
            return Clone(binder, tuple(idents), rhs, self.parse_term(), loc=loc)
        raise SyntaxError_("malformed let binding", self.peek().loc)

    def _parse_app(self) -> Term:
        head = self._parse_operator_or_atom()
        while self._at_atom_start():
            arg = self._parse_operator_or_atom()
            head = App(head, arg, loc=head.loc)
        return head

    def _at_atom_start(self) -> bool:
        t = self.peek()
        if t.kind in ("ident", "nat", "float", "prim"):
            return True
        if t.kind == "keyword" and t.text in ("withBorrow", "split", "join", "push", "pull", "share", "pack"):
            return True
        if t.kind == "symbol" and t.text in ("(", "["):
            return True
        return False

    def _parse_operator_or_atom(self) -> Term:
        t = self.peek()
        if t.kind == "keyword":
            if t.text == "withBorrow":
                loc = self.next().loc
                fn = self._parse_atom()
                arg = self._parse_atom()
                return WithBorrow(fn, arg, loc=loc)
            if t.text in ("split", "join", "push", "pull", "share"):
                loc = self.next().loc
                body = self._parse_atom()
                ctor = {"split": Split, "join": Join, "push": Push, "pull": Pull, "share": Share}[t.text]
                return ctor(body, loc=loc)
            if t.text == "pack":
                loc = self.next().loc
                self.sym("<")
                ident = self.ident().text
                self.sym(",")
                body = self.parse_term()
                self.sym(">")
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
            self.next()
            return NatLit(int(t.text), loc=t.loc)
        if t.kind == "float":
            self.next()
            return FloatLit(float(t.text), loc=t.loc)
        if self.at("symbol", "("):
            loc = self.next().loc
            if self.at("symbol", ")"):
                self.next()
                return UnitVal(loc=loc)
            first = self.parse_term()
            if self.at("symbol", ","):
                self.next()
                second = self.parse_term()
                self.sym(")")
                return Pair(first, second, loc=loc)
            self.sym(")")
            return first
        if self.at("symbol", "["):
            loc = self.next().loc
            body = self.parse_term()
            self.sym("]")
            return Promote(body, loc=loc)
        if t.kind == "keyword" and t.text in ("withBorrow", "split", "join", "push", "pull", "share", "pack"):
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
    while not p.at("eof"):
        name_tok = p.ident()
        name = name_tok.text
        if p.at("symbol", ":"):
            p.next()
            if name in sigs:
                raise SyntaxError_(f"duplicate signature for {name!r}", name_tok.loc)
            sigs[name] = p.parse_type()
            locs.setdefault(name, name_tok.loc)
            order.append(name)
        elif p.at("symbol", "="):
            p.next()
            if name not in sigs:
                raise SyntaxError_(f"body for {name!r} precedes its signature", name_tok.loc)
            if name in bodies:
                raise SyntaxError_(f"duplicate body for {name!r}", name_tok.loc)
            bodies[name] = p.parse_term()
        else:
            raise SyntaxError_(f"expected ':' or '=' after {name!r}", p.peek().loc)
        if p.at("symbol", ";"):
            p.next()
        elif not p.at("eof"):
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
    t = p.parse_term()
    p.expect("eof")
    return t


def parse_type(text: str, ring: Optional[Semiring] = None) -> Type:
    p = Parser(lex(text), ring or NAT_LEQ)
    t = p.parse_type()
    p.expect("eof")
    return t


# ---------------------------------------------------------------------------
# Pretty printer


def print_perm(p: S.PermExpr) -> str:
    if isinstance(p, PermVar):
        return p.name
    return str(p)


def print_type(ty: Type, prec: int = 0) -> str:
    # precedence levels: 0 arrow, 1 product, 2 prefix, 3 atom
    def wrap(s: str, level: int) -> str:
        return f"({s})" if prec > level else s

    match ty:
        case Forall(bs, body):
            binders = ", ".join(f"{v} : {k}" for v, k in bs)
            return wrap(f"forall {{{binders}}} . {print_type(body, 0)}", 0)
        case Fun(d, c):
            return wrap(f"{print_type(d, 1)} -o {print_type(c, 0)}", 0)
        case Prod(l, r):
            return wrap(f"{print_type(l, 2)} * {print_type(r, 1)}", 1)
        case Amp(p, b):
            if isinstance(p, Permission) and p.is_star:
                return wrap(f"* {print_type(b, 2)}", 2)
            return wrap(f"& {print_perm(p)} {print_type(b, 2)}", 2)
        case ExistsT(i, b):
            return wrap(f"exists {i} . {print_type(b, 0)}", 2)
        case ResT(k, i, pay):
            return wrap(f"{k} {i} {print_type(pay, 3)}", 2)
        case Box(g, b):
            return f"{print_type(b, 3)} [{g}]" if prec <= 2 else f"({print_type(b, 3)} [{g}])"
        case UnitT():
            return "Unit"
        case NatT():
            return "Nat"
        case FloatT():
            return "Float"
        case NameT(i):
            return i
        case _:
            raise ValueError(f"unprintable type {ty!r}")


def print_term(t: Term, prec: int = 0) -> str:
    # precedence levels: 0 open (lets, lambdas), 1 application, 2 atom
    def wrap(s: str, level: int) -> str:
        return f"({s})" if prec > level else s

    match t:
        case Var(n):
            return n
        case Prim(n):
            return n
        case NatLit(v):
            return str(v)
        case FloatLit(v):
            s = repr(v)
            return s if "." in s or "e" in s else s + ".0"
        case UnitVal():
            return "()"
        case Abs(p, b, ann):
            ann_s = f" : {print_type(ann, 2)}" if ann is not None else ""
            return wrap(f"\\{p}{ann_s} -> {print_term(b, 0)}", 0)
        case App(f, a):
            return wrap(f"{print_term(f, 1)} {print_term(a, 2)}", 1)
        case Pair(l, r):
            return f"({print_term(l, 0)}, {print_term(r, 0)})"
        case LetPair(x, y, rhs, body):
            return wrap(f"let ({x}, {y}) = {print_term(rhs, 1)} in {print_term(body, 0)}", 0)
        case LetUnit(rhs, body):
            return wrap(f"let () = {print_term(rhs, 1)} in {print_term(body, 0)}", 0)
        case Promote(b, _):
            return f"[{print_term(b, 0)}]"
        case LetBox(x, rhs, body, ann):
            ann_s = f" : {print_type(ann, 3)}" if ann is not None else ""
            return wrap(f"let [{x}]{ann_s} = {print_term(rhs, 1)} in {print_term(body, 0)}", 0)
        case Pack(i, b):
            return wrap(f"pack <{i}, {print_term(b, 0)}>", 1)
        case Unpack(i, x, rhs, body, _):
            return wrap(f"unpack <{i}, {x}> = {print_term(rhs, 1)} in {print_term(body, 0)}", 0)
        case WithBorrow(f, a):
            return wrap(f"withBorrow {print_term(f, 2)} {print_term(a, 2)}", 1)
        case Split(b):
            return wrap(f"split {print_term(b, 2)}", 1)
        case Join(b):
            return wrap(f"join {print_term(b, 2)}", 1)
        case Push(b):
            return wrap(f"push {print_term(b, 2)}", 1)
        case Pull(b):
            return wrap(f"pull {print_term(b, 2)}", 1)
        case Share(b, _):
            return wrap(f"share {print_term(b, 2)}", 1)
        case Clone(x, ids, rhs, body, _):
            ids_s = ", ".join(ids)
            return wrap(f"let *{x} = clone {print_term(rhs, 2)} as <{ids_s}> in {print_term(body, 0)}", 0)
        case Uniq(b, _):
            return wrap(f"*{print_term(b, 2)}", 1)
        case Unborrow(b):
            return wrap(f"unborrow {print_term(b, 2)}", 1)
        case RefVal(r):
            return f"#{r}"
        case _:
            raise ValueError(f"unprintable term {t!r}")


def print_program(prog: SourceProgram) -> str:
    lines = [f"#semiring {prog.semiring.name}", ""]
    for d in prog.definitions:
        lines.append(f"{d.name} : {print_type(d.signature)};")
        lines.append(f"{d.name} =")
        lines.append(f"  {print_term(d.body)};")
        lines.append("")
    return "\n".join(lines)
